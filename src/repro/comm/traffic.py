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
from dataclasses import dataclass, field


@dataclass(frozen=True)
class MessageRecord:
    """One point-to-point message, or one summary of many.

    Attributes:
        src: sending rank (``-1`` for a round summary: many senders).
        dst: receiving rank (``-1`` for a round summary).
        nbytes: payload bytes (the total of a summary record).
        phase: phase label active when the message was sent.
        count: messages the record stands for.  Summing it over
            :attr:`TrafficLog.messages` gives ``message_count()``.
    """

    src: int
    dst: int
    nbytes: int
    phase: str
    count: int = 1


@dataclass(frozen=True)
class CollectiveRecord:
    """One collective operation over the whole world.

    Attributes:
        kind: collective name (``"allreduce"``, ``"allgather"``, ...).
        world_size: number of participating ranks.
        nbytes: per-rank payload size in bytes.
        phase: phase label active when the collective ran.
    """

    kind: str
    world_size: int
    nbytes: int
    phase: str


class TrafficLog:
    """Accumulates communication records with cheap aggregate summaries.

    ``messages`` is the detailed list: one record per individually posted
    message, one *summary* record per bulk call (:meth:`record_messages`,
    :meth:`record_round` — a halo round is one record, not one per
    message, so the list grows with rounds).  Every query reads the
    incrementally maintained aggregates, never the list.
    """

    def __init__(self) -> None:
        self.messages: list[MessageRecord] = []
        self.collectives: list[CollectiveRecord] = []
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
        self.messages.append(MessageRecord(src, dst, int(nbytes), phase))
        self._msg_count[phase] += 1
        self._msg_bytes[phase] += int(nbytes)
        self._rank_msg_count[(phase, src)] += 1
        self._rank_msg_bytes[(phase, src)] += int(nbytes)

    def record_messages(
        self, src: int, dst: int, count: int, nbytes: int, phase: str
    ) -> None:
        """Record ``count`` messages between one pair in bulk.

        Aggregates update exactly as ``count`` separate calls would; the
        detailed list receives a single summary record (high-volume setup
        phases would otherwise dominate the log's memory).
        """
        self.messages.append(
            MessageRecord(src, dst, int(nbytes), phase, int(count))
        )
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
        phase label); the detailed list receives one summary record.
        """
        if not count:
            return
        self.messages.append(MessageRecord(-1, -1, nbytes, phase, count))
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
        self.collectives.append(
            CollectiveRecord(kind, int(world_size), int(nbytes), phase)
        )
        self._coll_count[phase] += 1
        self._coll_bytes[phase] += int(nbytes)

    # -- queries -----------------------------------------------------------

    def message_count(self, phase: str | None = None) -> int:
        """Total point-to-point messages, optionally restricted to a phase.

        Computed from the incremental aggregates, not ``len(messages)``:
        bulk :meth:`record_messages` appends a single summary record
        while counting ``count`` messages, so the detailed list
        undercounts by design.
        """
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
            return len(self.collectives)
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

    def publish_metrics(self, registry) -> None:
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
        registry.gauge("comm.total_collectives").set(len(self.collectives))

    def clear(self) -> None:
        """Drop all records and aggregates."""
        self.messages.clear()
        self.collectives.clear()
        self._msg_count.clear()
        self._msg_bytes.clear()
        self._coll_count.clear()
        self._coll_bytes.clear()
        self._rank_msg_count.clear()
        self._rank_msg_bytes.clear()
