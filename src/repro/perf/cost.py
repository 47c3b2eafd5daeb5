"""Roofline-style cost model: measured work -> simulated wall time.

The model consumes what a real (scaled) run measured — per-phase/per-rank
kernel work from :class:`~repro.perf.opcounts.OpRecorder` and the message
structure from :class:`~repro.comm.traffic.TrafficLog` — and prices it on a
:class:`~repro.perf.machines.MachineSpec`:

* kernel time  = ``launches * launch_overhead
  + max(flops / eff_flops, bytes / eff_bw)`` (memory-bound sparse kernels hit
  the bandwidth leg; the launch term is what flattens GPU strong scaling at
  low DoFs/GPU, exactly the regime the paper studies down to 1e5 DoFs/GPU);
* a bulk-synchronous phase's compute time is the **busiest rank's** kernel
  time, scaled by the device-memory oversubscription penalty;
* point-to-point time = busiest rank's ``messages * msg_latency +
  bytes / nic_bw``; collectives cost ``latency * ceil(log2(P))`` each.

Because the reproduction meshes are ~1000x smaller than the paper's, the
model accepts a ``work_scale``: volumetric work (flops/bytes) is multiplied
by it and halo bytes by ``work_scale**(2/3)`` (surface-to-volume), while
launch and message *counts* stay fixed — they are scale-independent
properties of the algorithms.  ``work_scale=1`` prices the scaled run as-is.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from repro.comm.simcomm import SimWorld
from repro.perf.machines import MachineSpec
from repro.perf.opcounts import KernelTally


@dataclass
class PhaseTime:
    """Simulated time of one phase, split into compute and communication."""

    compute: float = 0.0
    comm: float = 0.0

    @property
    def total(self) -> float:
        """Compute + communication [s]."""
        return self.compute + self.comm

    def __add__(self, other: "PhaseTime") -> "PhaseTime":
        return PhaseTime(self.compute + other.compute, self.comm + other.comm)


@dataclass
class PhaseAggregate:
    """Cumulative per-phase work + traffic summary, snapshot-friendly.

    ``flops``/``bytes``/``launches`` are the busiest rank's kernel work;
    ``msgs``/``msg_bytes`` the busiest rank's outgoing point-to-point
    traffic; ``colls``/``coll_bytes`` total collectives.  Aggregates are
    additive, so per-step deltas are field-wise differences of cumulative
    snapshots (the monotone accumulation makes the busiest-rank diff a
    faithful per-step estimate for balanced phases).
    """

    flops: float = 0.0
    bytes: float = 0.0
    launches: float = 0.0
    msgs: float = 0.0
    msg_bytes: float = 0.0
    colls: float = 0.0
    coll_bytes: float = 0.0

    def minus(self, other: "PhaseAggregate") -> "PhaseAggregate":
        """Field-wise difference (cumulative -> per-interval)."""
        return PhaseAggregate(
            flops=self.flops - other.flops,
            bytes=self.bytes - other.bytes,
            launches=self.launches - other.launches,
            msgs=self.msgs - other.msgs,
            msg_bytes=self.msg_bytes - other.msg_bytes,
            colls=self.colls - other.colls,
            coll_bytes=self.coll_bytes - other.coll_bytes,
        )

    def plus(self, other: "PhaseAggregate") -> "PhaseAggregate":
        """Field-wise sum."""
        return PhaseAggregate(
            flops=self.flops + other.flops,
            bytes=self.bytes + other.bytes,
            launches=self.launches + other.launches,
            msgs=self.msgs + other.msgs,
            msg_bytes=self.msg_bytes + other.msg_bytes,
            colls=self.colls + other.colls,
            coll_bytes=self.coll_bytes + other.coll_bytes,
        )


def snapshots_to_json(snapshots: list[dict]) -> list[dict]:
    """Per-step cumulative snapshots as JSON (floats round-trip exactly)."""
    return [{ph: asdict(agg) for ph, agg in s.items()} for s in snapshots]


def snapshots_from_json(data: list[dict]) -> list[dict[str, PhaseAggregate]]:
    """Inverse of :func:`snapshots_to_json`."""
    return [{ph: PhaseAggregate(**a) for ph, a in s.items()} for s in data]


def phase_aggregate(world: SimWorld, phase: str) -> PhaseAggregate:
    """One phase's cumulative aggregate from a world's logs."""
    tally = world.ops.max_rank_tally(phase)
    return PhaseAggregate(
        flops=tally.flops,
        bytes=tally.bytes,
        launches=float(tally.launches),
        msgs=float(world.traffic.max_rank_messages(phase)),
        msg_bytes=float(world.traffic.max_rank_bytes(phase)),
        colls=float(world.traffic.collective_count(phase)),
        coll_bytes=float(world.traffic.collective_bytes(phase)),
    )


def collect_phase_aggregates(world: SimWorld) -> dict[str, PhaseAggregate]:
    """Snapshot every phase's cumulative aggregate from a world's logs."""
    phases = sorted(set(world.ops.phases()) | set(world.traffic.phases()))
    return {ph: phase_aggregate(world, ph) for ph in phases}


@dataclass
class CostModel:
    """Prices measured work on one machine spec.

    Attributes:
        machine: hardware rates to price against.
        work_scale: volumetric scale-up factor (see module docstring).
    """

    machine: MachineSpec
    work_scale: float = 1.0

    @property
    def surface_scale(self) -> float:
        """Halo-traffic scale factor: surface grows as volume^(2/3)."""
        return self.work_scale ** (2.0 / 3.0)

    # -- kernel pricing ------------------------------------------------------

    def kernel_time(self, tally: KernelTally) -> float:
        """Time for one rank's kernel work in a phase [s]."""
        m = self.machine
        flops = tally.flops * self.work_scale
        nbytes = tally.bytes * self.work_scale
        roofline = max(
            flops / m.eff_flops if m.eff_flops > 0 else 0.0,
            nbytes / m.eff_bw if m.eff_bw > 0 else 0.0,
        )
        return tally.launches * m.launch_overhead + roofline

    def memory_penalty(self, peak_alloc_bytes: float) -> float:
        """Kernel-time multiplier from device-memory oversubscription."""
        m = self.machine
        if m.device_memory <= 0:
            return 1.0
        oversub = (peak_alloc_bytes * self.work_scale) / m.device_memory - 1.0
        if oversub <= 0:
            return 1.0
        return 1.0 + m.oversub_penalty * oversub

    # -- communication pricing -----------------------------------------------

    def p2p_time(self, n_messages: int, nbytes: float) -> float:
        """Point-to-point time for one rank's outgoing traffic [s]."""
        m = self.machine
        return n_messages * m.msg_latency + (
            nbytes * self.surface_scale / m.nic_bw if m.nic_bw > 0 else 0.0
        )

    def collective_time(self, count: int, nbytes: float, world_size: int) -> float:
        """Time for ``count`` collectives of ``nbytes`` payload each [s]."""
        if world_size <= 1 or count == 0:
            return 0.0
        depth = max(1, math.ceil(math.log2(world_size)))
        m = self.machine
        per_coll = depth * m.msg_latency + (
            nbytes / m.nic_bw if m.nic_bw > 0 else 0.0
        )
        return count * per_coll

    def price_aggregate(
        self,
        agg: PhaseAggregate,
        world_size: int,
        peak_alloc_bytes: float = 0.0,
    ) -> PhaseTime:
        """Price one phase aggregate (cumulative or per-step delta)."""
        tally = KernelTally(
            flops=agg.flops, bytes=agg.bytes, launches=int(agg.launches)
        )
        compute = self.kernel_time(tally) * self.memory_penalty(
            peak_alloc_bytes
        )
        comm = 0.0
        if world_size > 1:
            comm += self.p2p_time(int(agg.msgs), agg.msg_bytes)
            per = agg.coll_bytes / agg.colls if agg.colls else 0.0
            comm += self.collective_time(int(agg.colls), per, world_size)
        return PhaseTime(compute=compute, comm=comm)

    # -- phase / run pricing ---------------------------------------------------

    def phase_time(self, world: SimWorld, phase: str) -> PhaseTime:
        """Price one phase of a completed run: its aggregate, through
        the one pricing formula."""
        return self.price_aggregate(
            phase_aggregate(world, phase), world.size, world.ops.peak_alloc()
        )

    def run_time(self, world: SimWorld, phases: list[str] | None = None) -> dict[str, PhaseTime]:
        """Price every phase of a completed run.

        Args:
            world: world whose recorder/traffic hold a finished run.
            phases: phase labels to price; defaults to all observed.

        Returns:
            Mapping phase label -> :class:`PhaseTime`.
        """
        if phases is None:
            phases = sorted(set(world.ops.phases()) | set(world.traffic.phases()))
        return {ph: self.phase_time(world, ph) for ph in phases}
