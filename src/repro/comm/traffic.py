"""Communication traffic accounting.

Every simulated point-to-point message and collective operation is recorded
here.  The performance model consumes the log to estimate communication time
on a modeled interconnect: per-message latency, per-byte bandwidth cost, and
``log2(P)``-depth collectives.

Records are tagged with a free-form *phase* label (e.g. ``"spmv"``,
``"global_assembly"``, ``"amg_setup"``) so per-phase breakdowns (paper
Figs. 6-7) can attribute communication to the right bar.
"""

from __future__ import annotations

from collections import defaultdict


class TrafficLog:
    """Accumulates communication counts as per-phase aggregates.

    Nothing is kept per message or per collective: every ``record_*``
    call updates the aggregates below and every query reads them, so
    the log's memory is bounded by phases x ranks, not by run length.
    """

    def __init__(self) -> None:
        # Aggregates keyed by phase label.
        self._msg_count: dict[str, int] = defaultdict(int)
        self._msg_bytes: dict[str, int] = defaultdict(int)
        self._coll_count: dict[str, int] = defaultdict(int)
        self._coll_bytes: dict[str, int] = defaultdict(int)
        # Per (phase, rank) outgoing message count/bytes: the cost model's
        # critical path is the busiest rank in each exchange phase.
        self._rank_msg_count: dict[tuple[str, int], int] = defaultdict(int)
        self._rank_msg_bytes: dict[tuple[str, int], int] = defaultdict(int)

    def record_message(self, src: int, dst: int, nbytes: int, phase: str) -> None:
        """Record one point-to-point message."""
        self._msg_count[phase] += 1
        self._msg_bytes[phase] += int(nbytes)
        self._rank_msg_count[(phase, src)] += 1
        self._rank_msg_bytes[(phase, src)] += int(nbytes)

    def record_messages(
        self, src: int, dst: int, count: int, nbytes: int, phase: str
    ) -> None:
        """Record ``count`` messages between one pair in bulk.

        Aggregates update exactly as ``count`` separate calls totalling
        ``nbytes`` would.
        """
        self._msg_count[phase] += int(count)
        self._msg_bytes[phase] += int(nbytes)
        self._rank_msg_count[(phase, src)] += int(count)
        self._rank_msg_bytes[(phase, src)] += int(nbytes)

    def record_round(
        self,
        per_source: list[tuple[int, int, int]],
        count: int,
        nbytes: int,
        phase: str,
    ) -> None:
        """Record one whole exchange round from its precomputed sums.

        ``per_source`` lists ``(src, messages, bytes)`` for every rank
        that sends at least one message; ``count``/``nbytes`` are their
        totals.  Aggregates update exactly as one :meth:`record_message`
        per message would (an empty round leaves no trace, not even its
        phase label).
        """
        if not count:
            return
        self._msg_count[phase] += count
        self._msg_bytes[phase] += nbytes
        rank_count, rank_bytes = self._rank_msg_count, self._rank_msg_bytes
        for src, n, b in per_source:
            rank_count[(phase, src)] += n
            rank_bytes[(phase, src)] += b

    def record_collective(
        self, kind: str, world_size: int, nbytes: int, phase: str
    ) -> None:
        """Record one collective operation."""
        self._coll_count[phase] += 1
        self._coll_bytes[phase] += int(nbytes)

    # -- queries -----------------------------------------------------------

    def message_count(self, phase: str | None = None) -> int:
        """Total point-to-point messages, optionally restricted to a phase."""
        if phase is None:
            return sum(self._msg_count.values())
        return self._msg_count.get(phase, 0)

    def message_bytes(self, phase: str | None = None) -> int:
        """Total point-to-point bytes, optionally restricted to a phase."""
        if phase is None:
            return sum(self._msg_bytes.values())
        return self._msg_bytes.get(phase, 0)

    def collective_count(self, phase: str | None = None) -> int:
        """Total collectives, optionally restricted to a phase."""
        if phase is None:
            return sum(self._coll_count.values())
        return self._coll_count.get(phase, 0)

    def collective_bytes(self, phase: str | None = None) -> int:
        """Total per-rank collective payload bytes for a phase (or all)."""
        if phase is None:
            return sum(self._coll_bytes.values())
        return self._coll_bytes.get(phase, 0)

    def max_rank_messages(self, phase: str) -> int:
        """Outgoing message count of the busiest rank in ``phase``."""
        counts = [
            v for (ph, _r), v in self._rank_msg_count.items() if ph == phase
        ]
        return max(counts, default=0)

    def max_rank_bytes(self, phase: str) -> int:
        """Outgoing bytes of the busiest rank in ``phase``."""
        counts = [
            v for (ph, _r), v in self._rank_msg_bytes.items() if ph == phase
        ]
        return max(counts, default=0)

    def phases(self) -> list[str]:
        """All phase labels seen so far, point-to-point or collective."""
        return sorted(set(self._msg_count) | set(self._coll_count))

    def rank_totals(self) -> dict[int, dict[str, int]]:
        """Outgoing message count/bytes per source rank over all phases."""
        out: dict[int, dict[str, int]] = {}
        for (_ph, r), c in self._rank_msg_count.items():
            out.setdefault(r, {"messages": 0, "bytes": 0})["messages"] += c
        for (_ph, r), b in self._rank_msg_bytes.items():
            out.setdefault(r, {"messages": 0, "bytes": 0})["bytes"] += b
        return out

    def publish(self, registry) -> None:
        """Publish per-phase aggregates into a MetricsRegistry.

        Pull-style: called at telemetry-collection time so the per-message
        hot path never touches the registry.  Gauges are overwritten, so
        repeated publication is idempotent on a cumulative log.
        """
        for ph in self.phases():
            registry.gauge("comm.messages", phase=ph).set(
                self._msg_count.get(ph, 0)
            )
            registry.gauge("comm.message_bytes", phase=ph).set(
                self._msg_bytes.get(ph, 0)
            )
            registry.gauge("comm.collectives", phase=ph).set(
                self._coll_count.get(ph, 0)
            )
        registry.gauge("comm.total_messages").set(
            sum(self._msg_count.values())
        )
        registry.gauge("comm.total_message_bytes").set(
            sum(self._msg_bytes.values())
        )
        registry.gauge("comm.total_collectives").set(self.collective_count())

    AGGREGATES = (
        "_msg_count", "_msg_bytes", "_coll_count", "_coll_bytes",
        "_rank_msg_count", "_rank_msg_bytes",
    )

    def state_dict(self) -> dict:
        """JSON-able copy of every aggregate: ``[*key, value]`` rows."""
        return {
            name: [
                [*(k if isinstance(k, tuple) else (k,)), int(v)]
                for k, v in getattr(self, name).items()
            ]
            for name in self.AGGREGATES
        }

    def load_state(self, state: dict) -> None:
        """Replace every aggregate with a :meth:`state_dict` copy."""
        self.clear()
        for name in self.AGGREGATES:
            agg = getattr(self, name)
            for *key, value in state[name]:
                agg[tuple(key) if len(key) > 1 else key[0]] = value

    def clear(self) -> None:
        """Drop all aggregates."""
        self._msg_count.clear()
        self._msg_bytes.clear()
        self._coll_count.clear()
        self._coll_bytes.clear()
        self._rank_msg_count.clear()
        self._rank_msg_bytes.clear()
