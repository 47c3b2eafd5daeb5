"""Operation counting for the machine performance model.

The reproduction runs every algorithm for real on scaled meshes; what it
cannot do is run them on Summit's V100s.  The bridge is this recorder: hot
kernels report their work (flops, bytes moved, kernel launches) tagged by
*phase* (the paper's breakdown categories, Figs. 6-7) and *rank*, and the
cost model (:mod:`repro.perf.cost`) converts the busiest rank's work per
phase into simulated time on a :class:`~repro.perf.machines.MachineSpec`.

Device-memory footprints are recorded separately (``record_alloc``) so the
capacity model can reproduce the paper's observation that over-subscribed
device DRAM causes cliffs at low node counts (§6).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence


@dataclass
class KernelTally:
    """Accumulated work for one (phase, rank) pair."""

    flops: float = 0.0
    bytes: float = 0.0
    launches: int = 0

    def add(self, flops: float, nbytes: float, launches: int) -> None:
        """Accumulate one kernel invocation's work."""
        self.flops += flops
        self.bytes += nbytes
        self.launches += launches


class OpRecorder:
    """Accumulates kernel work and memory footprints per (phase, rank)."""

    def __init__(self) -> None:
        self._tallies: dict[tuple[str, int], KernelTally] = defaultdict(KernelTally)
        self._kernel_tallies: dict[tuple[str, str], KernelTally] = defaultdict(
            KernelTally
        )
        self._alloc_bytes: dict[int, float] = defaultdict(float)
        self._peak_alloc_bytes: dict[int, float] = defaultdict(float)

    def record(
        self,
        phase: str,
        rank: int,
        kernel: str,
        flops: float = 0.0,
        nbytes: float = 0.0,
        launches: int = 1,
    ) -> None:
        """Record one kernel invocation's work."""
        self._tallies[(phase, rank)].add(flops, nbytes, launches)
        self._kernel_tallies[(phase, kernel)].add(flops, nbytes, launches)

    def record_ranks(
        self,
        phase: str,
        kernel: str,
        flops: Sequence[float],
        nbytes: Sequence[float],
        launches: int | Sequence[int] = 1,
        ranks: Sequence[int] | None = None,
    ) -> None:
        """Record one kernel invocation on each of many ranks at once.

        ``flops[i]``/``nbytes[i]`` (and ``launches[i]``, unless one count
        serves every rank) are the work of rank ``ranks[i]`` — of rank
        ``i`` when ``ranks`` is omitted.  Tallies accumulate in the given
        order, so the result is exactly that of one :meth:`record` call
        per rank.
        """
        if len(flops) == 0:
            return
        if ranks is None:
            ranks = range(len(flops))
        if isinstance(launches, int):
            launches = repeat(launches)
        tallies = self._tallies
        kernel_tally = self._kernel_tallies[(phase, kernel)]
        for r, f, b, n in zip(ranks, flops, nbytes, launches):
            tallies[(phase, r)].add(f, b, n)
            kernel_tally.add(f, b, n)

    def record_alloc(self, rank: int, nbytes: float) -> None:
        """Record a device allocation (negative ``nbytes`` frees)."""
        self._alloc_bytes[rank] += nbytes
        self._peak_alloc_bytes[rank] = max(
            self._peak_alloc_bytes[rank], self._alloc_bytes[rank]
        )

    # -- queries -----------------------------------------------------------

    def tally(self, phase: str, rank: int) -> KernelTally:
        """Work accumulated for ``(phase, rank)`` (zero tally if unseen)."""
        return self._tallies.get((phase, rank), KernelTally())

    def phases(self) -> list[str]:
        """All phase labels with recorded work."""
        return sorted({ph for ph, _r in self._tallies})

    def ranks(self, phase: str) -> list[int]:
        """Ranks with recorded work in ``phase``."""
        return sorted(r for ph, r in self._tallies if ph == phase)

    def kernels(self, phase: str) -> list[str]:
        """Kernel names with recorded work in ``phase``."""
        return sorted({k for ph, k in self._kernel_tallies if ph == phase})

    def kernel_tally(self, phase: str, kernel: str) -> KernelTally:
        """Rank-summed work for ``(phase, kernel)`` (zero tally if unseen)."""
        return self._kernel_tallies.get((phase, kernel), KernelTally())

    def max_rank_tally(self, phase: str) -> KernelTally:
        """Element-wise maximum over ranks for ``phase``.

        The cost model treats a bulk-synchronous phase's compute time as the
        busiest rank's kernel time, so per-field maxima are the conservative
        critical-path estimate.
        """
        out = KernelTally()
        for (ph, _r), t in self._tallies.items():
            if ph != phase:
                continue
            out.flops = max(out.flops, t.flops)
            out.bytes = max(out.bytes, t.bytes)
            out.launches = max(out.launches, t.launches)
        return out

    def total(self, phase: str | None = None) -> KernelTally:
        """Summed work over all ranks (and phases if ``phase`` is None)."""
        out = KernelTally()
        for (ph, _r), t in self._tallies.items():
            if phase is None or ph == phase:
                out.add(t.flops, t.bytes, t.launches)
        return out

    def kernel_total(self, kernel: str) -> KernelTally:
        """Summed work for one kernel name across phases and ranks."""
        out = KernelTally()
        for (_ph, k), t in self._kernel_tallies.items():
            if k == kernel:
                out.add(t.flops, t.bytes, t.launches)
        return out

    def publish_metrics(self, registry) -> None:
        """Publish busiest-rank work per phase into a MetricsRegistry.

        Pull-style (see TrafficLog.publish_metrics): gauges overwrite, so
        publication is idempotent on cumulative tallies.
        """
        for ph in self.phases():
            t = self.max_rank_tally(ph)
            registry.gauge("ops.flops", phase=ph).set(t.flops)
            registry.gauge("ops.bytes", phase=ph).set(t.bytes)
            registry.gauge("ops.launches", phase=ph).set(t.launches)
        registry.gauge("ops.peak_alloc_bytes").set(self.peak_alloc())

    def peak_alloc(self, rank: int | None = None) -> float:
        """Peak recorded allocation for a rank, or max over ranks."""
        if rank is not None:
            return self._peak_alloc_bytes.get(rank, 0.0)
        return max(self._peak_alloc_bytes.values(), default=0.0)

    def state_dict(self) -> dict:
        """JSON-able copy of every tally and allocator level."""

        def rows(tallies: dict) -> list:
            return [
                [*key, float(t.flops), float(t.bytes), int(t.launches)]
                for key, t in tallies.items()
            ]

        return {
            "tallies": rows(self._tallies),
            "kernels": rows(self._kernel_tallies),
            "alloc": [
                [r, float(b), float(self._peak_alloc_bytes[r])]
                for r, b in self._alloc_bytes.items()
            ],
        }

    def load_state(self, state: dict) -> None:
        """Replace every tally and allocator level with a
        :meth:`state_dict` copy."""
        self.clear()
        for ph, r, *work in state["tallies"]:
            self._tallies[(ph, r)] = KernelTally(*work)
        for ph, kernel, *work in state["kernels"]:
            self._kernel_tallies[(ph, kernel)] = KernelTally(*work)
        for r, alloc, peak in state["alloc"]:
            self._alloc_bytes[r] = alloc
            self._peak_alloc_bytes[r] = peak

    def clear(self) -> None:
        """Drop all tallies."""
        self._tallies.clear()
        self._kernel_tallies.clear()
        self._alloc_bytes.clear()
        self._peak_alloc_bytes.clear()
