"""Per-rank simulated timelines: comm-wait attribution + critical path.

The SPMD simulator executes every rank's work in one process, so there
is no real per-rank clock to read.  What there *is* — and what a real
profiler ultimately derives its story from — is the complete record of
per-rank kernel work (the op recorder) and the synchronization structure
of the run (halo exchanges, collectives).  The
:class:`TimelineProfiler` replays that record onto per-rank simulated
clocks priced by a machine model:

* between synchronization points each rank advances by the priced time
  of its own recorded kernel work (the cumulative tally delta since the
  last flush, for the currently active phase);
* at a halo exchange a rank first waits for the latest-arriving of its
  *sending neighbors* (neighborhood synchronization, not a global
  barrier), then pays the priced transfer time — send and receive
  traffic overlap (Isend/Irecv), so the transfer leg is their max;
* at a collective every rank waits for the globally latest rank (the
  straggler), then pays the priced collective time.

The result is, per rank, a contiguous sequence of ``compute`` /
``wait`` / ``transfer`` segments whose durations sum exactly to the
simulated wall time — the accounting identity the run telemetry's
``profile`` section carries (``tests/test_profile.py`` pins it).  Because wait segments
remember *which* rank they waited on, the cross-rank critical path (the
chain of segments bounding wall time) is recovered by walking backward
from the last-finishing rank and hopping to the waited-on rank at every
wait segment.

Simulated clocks derive only from deterministic tallies and pricing —
never from wall time — so repeated runs of a deterministic simulation
produce bitwise-identical timelines.

Three modeling choices, on purpose: the device-memory oversubscription
penalty is *not* applied per flush (it is a run-level correction the
aggregate cost model owns); halo-retry re-posts are not re-priced (the
timeline prices the logical exchange; retries are a resilience
artifact, visible through the ``comm.*`` counters instead); and the
calibrated AMG set-up rounds (``SETUP_COMM_ROUNDS`` modeled messages per
neighbor pair and level, ``SimWorld.charge_messages``) are charged to
the ``TrafficLog`` and left unpriced here — they are an overhead
estimate with no data movement and no sync point to place on a rank's
clock.  Every exchange the simulator *performs* is on the timeline:
``SimWorld.collective`` is the one writer of collectives for both
clocks, so their per-phase counts agree by construction.

Duck-typed like the rest of ``repro.obs``: ``pricer`` is anything with
``kernel_time(work)`` / ``p2p_time(n_messages, nbytes)`` /
``collective_time(count, nbytes, world_size)``
(:class:`repro.perf.cost.CostModel` qualifies) and ``ops`` anything
with ``tally(phase, rank)`` returning an object carrying ``flops`` /
``bytes`` / ``launches``.  This module imports nothing from the rest of
``repro``.
"""

from __future__ import annotations

import bisect
from typing import Any, NamedTuple


class Segment(NamedTuple):
    """One interval on one rank's simulated timeline.

    ``kind`` is ``"compute"`` | ``"wait"`` | ``"transfer"``; ``extra``
    carries the waited-on rank for waits and the exchange kind
    (``"halo"`` / ``"allreduce"`` / ...) for transfers.
    """

    t0: float
    t1: float
    kind: str
    phase: str
    extra: Any

    @property
    def duration(self) -> float:
        """Segment length [s]."""
        return self.t1 - self.t0


class _Work:
    """Lightweight kernel-tally delta handed to ``pricer.kernel_time``."""

    __slots__ = ("flops", "bytes", "launches")

    def __init__(self, flops: float, nbytes: float, launches: int) -> None:
        self.flops = flops
        self.bytes = nbytes
        self.launches = launches


class TimelineProfiler:
    """Per-rank simulated timeline over one world's recorded run.

    Args:
        nranks: world size.
        pricer: duck-typed machine pricer (see module docstring).
        ops: duck-typed op recorder queried for cumulative tallies.
    """

    def __init__(self, nranks: int, pricer: Any, ops: Any) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.nranks = int(nranks)
        self.pricer = pricer
        self.ops = ops
        #: Per-rank simulated clock [s since run start].
        self.t: list[float] = [0.0] * self.nranks
        #: Per-rank contiguous segment sequences.
        self.segments: list[list[Segment]] = [[] for _ in range(self.nranks)]
        #: Instant annotations ``(t, name, attrs)`` at run-level events.
        self.markers: list[tuple[float, str, dict[str, Any]]] = []
        self._phase_labels: list[str] = ["default"]
        # Cumulative (flops, bytes, launches) already priced per
        # (phase, rank); the next flush prices only the delta.
        self._consumed: dict[tuple[str, int], tuple[float, float, int]] = {}
        # sync kind -> [count, wait_s, transfer_s] (rank-seconds).
        self._by_kind: dict[str, list[float]] = {}
        # phase -> [wait_s, transfer_s, syncs, collectives] (rank-seconds;
        # collectives is the part of syncs that came through on_collective).
        self._phase_comm: dict[str, list[float]] = {}
        #: Split p2p rounds priced with post-time sender clocks.
        self.overlap_rounds = 0
        #: Rank-seconds of halo wait removed by overlap: the wait a
        #: synchronous round would have charged minus the wait actually
        #: charged against the post-time clocks.
        self.overlap_saved_s = 0.0
        self._finalized = False
        self._final_straggler = 0
        self._ends: list[list[float]] | None = None

    # -- phase mirroring -----------------------------------------------------

    @property
    def phase(self) -> str:
        """Currently active phase label (mirrors the world's stack)."""
        return self._phase_labels[-1]

    def on_phase_begin(self, label: str) -> None:
        """Enter a phase scope; outstanding outer-phase work is priced
        first so it lands before the inner phase's segments."""
        self._flush_compute()
        self._phase_labels.append(label)

    def on_phase_end(self, label: str) -> None:
        """Leave a phase scope, pricing its remaining recorded work."""
        if self._phase_labels[-1] != label:
            raise RuntimeError(
                f"profiler phase stack corrupted: ending {label!r} while "
                f"{self._phase_labels[-1]!r} is active"
            )
        self._flush_compute()
        self._phase_labels.pop()

    # -- compute pricing -----------------------------------------------------

    def _flush_compute(self, phase: str | None = None) -> None:
        """Advance every rank by its unpriced recorded work in ``phase``."""
        ph = self.phase if phase is None else phase
        for r in range(self.nranks):
            tally = self.ops.tally(ph, r)
            key = (ph, r)
            f0, b0, l0 = self._consumed.get(key, (0.0, 0.0, 0))
            df = tally.flops - f0
            db = tally.bytes - b0
            dl = tally.launches - l0
            if df <= 0.0 and db <= 0.0 and dl <= 0:
                continue
            self._consumed[key] = (tally.flops, tally.bytes, tally.launches)
            dt = self.pricer.kernel_time(_Work(df, db, dl))
            if dt > 0.0:
                t0 = self.t[r]
                self.segments[r].append(Segment(t0, t0 + dt, "compute", ph, None))
                self.t[r] = t0 + dt

    # -- synchronization events ----------------------------------------------

    def _record_sync(
        self, kind: str, phase: str, wait: float, transfer: float
    ) -> None:
        k = self._by_kind.setdefault(kind, [0, 0.0, 0.0])
        k[0] += 1
        k[1] += wait
        k[2] += transfer
        p = self._phase_comm.setdefault(phase, [0.0, 0.0, 0, 0])
        p[0] += wait
        p[1] += transfer
        p[2] += 1

    def on_collective(self, kind: str, nbytes: float) -> None:
        """One global collective: every rank syncs to the straggler, then
        pays the priced collective time (barriers price as pure sync)."""
        self._flush_compute()
        phase = self.phase
        ready = max(self.t)
        straggler = self.t.index(ready)
        transfer = 0.0
        if kind != "barrier" and self.nranks > 1:
            transfer = self.pricer.collective_time(
                1, float(nbytes), self.nranks
            )
        wait_total = 0.0
        for r in range(self.nranks):
            t0 = self.t[r]
            if t0 < ready:
                self.segments[r].append(
                    Segment(t0, ready, "wait", phase, straggler)
                )
                wait_total += ready - t0
            if transfer > 0.0:
                self.segments[r].append(
                    Segment(ready, ready + transfer, "transfer", phase, kind)
                )
            self.t[r] = ready + transfer
        self._record_sync(kind, phase, wait_total, transfer * self.nranks)
        self._phase_comm[phase][3] += 1

    def on_p2p_post(self) -> list[float]:
        """Snapshot per-rank clocks at the send-post point of a split
        p2p round (the ``MPI_Isend`` instant).

        Outstanding compute is flushed first so the snapshot sits after
        everything recorded *before* the posts; interior work recorded
        between this call and the matching :meth:`on_p2p_round` advances
        the receiver clocks past these frozen sender clocks — which is
        exactly how overlap shrinks the wait.
        """
        self._flush_compute()
        return list(self.t)

    def on_p2p_round(
        self,
        kind: str,
        out_msgs: list[int],
        out_bytes: list[float],
        in_msgs: list[int],
        in_bytes: list[float],
        senders_to: list[list[int]] | None = None,
        posted_at: list[float] | None = None,
    ) -> None:
        """One point-to-point exchange round.

        ``senders_to[r]`` lists the ranks sending to ``r`` (the halo
        neighborhood): ``r`` waits only for the latest of itself and its
        senders.  ``senders_to=None`` means a globally-synchronizing
        round (alltoallv): every rank waits for the global straggler.
        Each rank's transfer leg is ``max(send, recv)`` priced time —
        the two directions overlap.

        ``posted_at`` marks a *split* round (:meth:`on_p2p_post`): the
        wire transfer runs in the background from the moment the last
        participant posted, so each rank rejoins at ``max(own clock,
        last post + transfer)``.  Interior compute recorded between post
        and finish therefore hides wait *and* transfer (fully hidden
        transfer costs nothing); the rank-seconds saved relative to a
        synchronous round accumulate in :attr:`overlap_saved_s`.
        """
        self._flush_compute()
        phase = self.phase
        arrivals = list(self.t)
        global_ready = max(arrivals)
        global_straggler = arrivals.index(global_ready)
        wait_total = 0.0
        saved_total = 0.0
        transfer_total = 0.0
        for r in range(self.nranks):
            transfer = max(
                self.pricer.p2p_time(int(out_msgs[r]), float(out_bytes[r])),
                self.pricer.p2p_time(int(in_msgs[r]), float(in_bytes[r])),
            )
            t0 = arrivals[r]
            if senders_to is None:
                waited_on = global_straggler
                wait_end = global_ready
                end = wait_end + transfer
            elif posted_at is None:
                waited_on = r
                wait_end = t0
                for s in senders_to[r]:
                    if arrivals[s] > wait_end:
                        wait_end = arrivals[s]
                        waited_on = s
                end = wait_end + transfer
            else:
                # Split round: transfer is in flight since the last
                # needed post; the rank rejoins at max(own arrival,
                # posted data's wire arrival).
                bg_start = posted_at[r]
                waited_on = r
                sync_ready = t0
                for s in senders_to[r]:
                    if posted_at[s] > bg_start:
                        bg_start = posted_at[s]
                        waited_on = s
                    if arrivals[s] > sync_ready:
                        sync_ready = arrivals[s]
                end = max(t0, bg_start + transfer)
                wait_end = min(end, max(t0, bg_start))
                # What the synchronous schedule (wait for senders'
                # finish-point arrivals, then transfer) would have cost.
                saved_total += (sync_ready + transfer) - end
            if wait_end > t0:
                self.segments[r].append(
                    Segment(t0, wait_end, "wait", phase, waited_on)
                )
                wait_total += wait_end - t0
            if end > wait_end:
                self.segments[r].append(
                    Segment(wait_end, end, "transfer", phase, kind)
                )
                transfer_total += end - wait_end
            self.t[r] = end
        if posted_at is not None:
            self.overlap_rounds += 1
            self.overlap_saved_s += max(0.0, saved_total)
        self._record_sync(kind, phase, wait_total, transfer_total)

    def on_marker(self, name: str, **attrs: Any) -> None:
        """Instant annotation at the current simulated frontier."""
        self.markers.append((max(self.t), name, dict(attrs)))

    # -- finalization --------------------------------------------------------

    def finalize(self) -> "TimelineProfiler":
        """Flush remaining work and equalize every rank to wall time.

        Terminal wait segments close the per-rank accounting identity
        (compute + wait + transfer == wall time, exactly).  Idempotent.
        """
        if self._finalized:
            return self
        for label in reversed(self._phase_labels):
            self._flush_compute(label)
        wall = max(self.t)
        self._final_straggler = self.t.index(wall)
        phase = self.phase
        for r in range(self.nranks):
            t0 = self.t[r]
            if t0 < wall:
                self.segments[r].append(
                    Segment(t0, wall, "wait", phase, self._final_straggler)
                )
                self.t[r] = wall
        self._ends = [[seg.t1 for seg in segs] for segs in self.segments]
        self._finalized = True
        return self

    @property
    def wall_time(self) -> float:
        """Simulated wall time: the latest rank's clock [s]."""
        return max(self.t) if self.t else 0.0

    # -- derived views -------------------------------------------------------

    def rank_totals(self) -> list[dict[str, float]]:
        """Per rank: seconds by segment kind plus the accounted total."""
        out = []
        for segs in self.segments:
            acc = {"compute_s": 0.0, "wait_s": 0.0, "transfer_s": 0.0}
            for seg in segs:
                acc[f"{seg.kind}_s"] += seg.duration
            acc["accounted_s"] = (
                acc["compute_s"] + acc["wait_s"] + acc["transfer_s"]
            )
            acc["segments"] = float(len(segs))
            out.append(acc)
        return out

    def phase_compute_stats(self) -> dict[str, dict[str, float]]:
        """Load-imbalance metrics per phase, from compute segments.

        ``imbalance`` is max/mean over ranks (1.0 = perfectly balanced);
        ``straggler_rank`` is the busiest rank.
        """
        per: dict[str, list[float]] = {}
        for r, segs in enumerate(self.segments):
            for seg in segs:
                if seg.kind == "compute":
                    per.setdefault(seg.phase, [0.0] * self.nranks)[r] += (
                        seg.duration
                    )
        out: dict[str, dict[str, float]] = {}
        for phase in sorted(per):
            vals = per[phase]
            mx = max(vals)
            mean = sum(vals) / len(vals)
            out[phase] = {
                "max_s": mx,
                "mean_s": mean,
                "min_s": min(vals),
                "imbalance": mx / mean if mean > 0.0 else 1.0,
                "straggler_rank": float(vals.index(mx)),
            }
        return out

    def phase_comm_stats(self) -> dict[str, dict[str, float]]:
        """Per phase: rank-seconds of wait/transfer, sync-event count and
        the collectives among the syncs (the rest are p2p rounds).

        Terminal equalization waits (finalize) are not included — they
        close the accounting identity rather than model an exchange.
        """
        return {
            ph: {
                "wait_s": v[0],
                "transfer_s": v[1],
                "syncs": float(v[2]),
                "collectives": float(v[3]),
            }
            for ph, v in sorted(self._phase_comm.items())
        }

    def exchange_stats(self) -> dict[str, dict[str, float]]:
        """Per sync kind: event count and rank-seconds of wait/transfer."""
        return {
            kind: {"count": float(v[0]), "wait_s": v[1], "transfer_s": v[2]}
            for kind, v in sorted(self._by_kind.items())
        }

    def sync_count(self) -> int:
        """Total synchronization events (exchanges + collectives)."""
        return int(sum(v[0] for v in self._by_kind.values()))

    # -- critical path -------------------------------------------------------

    def critical_path(self) -> list[dict[str, Any]]:
        """The cross-rank chain of segments that bounds wall time.

        Walks backward from the last-finishing rank: compute/transfer
        segments join the path; a wait segment hops to the rank it
        waited on (whose arrival defined the wait's end), continuing
        from that rank's segment ending at the hop time.  Non-wait path
        durations therefore sum to wall time (up to float summation).
        Consecutive path entries on the same (rank, phase, kind) are
        merged.  Requires :meth:`finalize`.
        """
        if not self._finalized or self._ends is None:
            raise RuntimeError("finalize() the profiler before critical_path()")
        r = self._final_straggler
        i = len(self.segments[r]) - 1
        rev: list[tuple[int, str, str, float]] = []
        visited_waits: set[tuple[int, int]] = set()
        guard = sum(len(s) for s in self.segments) + self.nranks + 1
        while i >= 0 and guard > 0:
            guard -= 1
            seg = self.segments[r][i]
            if seg.kind == "wait":
                # Exact-tie cycles (two syncs ready at the same instant)
                # cannot happen with positive compute, but a revisited
                # wait would loop forever — bail to the segment below.
                if (r, i) in visited_waits:
                    i -= 1
                    continue
                visited_waits.add((r, i))
                s = int(seg.extra)
                j = bisect.bisect_right(self._ends[s], seg.t1) - 1
                if j < 0:
                    break
                r, i = s, j
                continue
            rev.append((r, seg.phase, seg.kind, seg.duration))
            i -= 1
        merged: list[dict[str, Any]] = []
        for rank, phase, kind, dur in reversed(rev):
            if (
                merged
                and merged[-1]["rank"] == rank
                and merged[-1]["phase"] == phase
                and merged[-1]["kind"] == kind
            ):
                merged[-1]["duration_s"] += dur
            else:
                merged.append(
                    {
                        "rank": rank,
                        "phase": phase,
                        "kind": kind,
                        "duration_s": dur,
                    }
                )
        return merged


def to_chrome_trace(
    profiler: TimelineProfiler, workload: str = ""
) -> dict[str, Any]:
    """Export a profiler's timeline as Chrome trace events (Perfetto).

    One process (pid 0) with one thread per rank; segments become
    complete ("X") events with microsecond timestamps, markers become
    global instant ("i") events.  Load the JSON in ``ui.perfetto.dev``
    or ``chrome://tracing``.
    """
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": f"repro: {workload or 'run'}"},
        }
    ]
    for r in range(profiler.nranks):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": r,
                "args": {"name": f"rank {r}"},
            }
        )
        events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": 0,
                "tid": r,
                "args": {"sort_index": r},
            }
        )
    for r, segs in enumerate(profiler.segments):
        for seg in segs:
            if seg.kind == "compute":
                name = seg.phase
                args: dict[str, Any] = {}
            elif seg.kind == "wait":
                name = "wait"
                args = {"phase": seg.phase, "waited_on_rank": int(seg.extra)}
            else:
                name = f"transfer:{seg.extra}"
                args = {"phase": seg.phase}
            events.append(
                {
                    "name": name,
                    "cat": seg.kind,
                    "ph": "X",
                    "pid": 0,
                    "tid": r,
                    "ts": seg.t0 * 1e6,
                    "dur": seg.duration * 1e6,
                    "args": args,
                }
            )
    for t, name, attrs in profiler.markers:
        events.append(
            {
                "name": name,
                "cat": "marker",
                "ph": "i",
                "s": "g",
                "pid": 0,
                "tid": 0,
                "ts": t * 1e6,
                "args": attrs,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
