"""Halo-exchange patterns for rank-block distributed vectors.

Global DoFs are distributed in contiguous rank blocks (hypre's 1-D block-row
layout, paper §3.3): rank ``r`` owns global indices
``[offsets[r], offsets[r+1])``.  A :class:`ExchangePattern` captures, once per
matrix, which owned entries each rank must ship to which neighbor so that
every rank can materialize the external ("ghost") vector entries its offd
block references.  This mirrors hypre's ``ParCSRCommPkg``, send buffer
included: the pattern holds one gather index for the whole round
(``send_map_elmts``), a round packs one contiguous send buffer with one
gather, and every message is a slice of it; receives land in one contiguous
external buffer, each rank's part a slice of that.  The tables a round needs
(message slices in posting and in receive order, per-source traffic sums,
the profiler's per-rank message/byte lists) are built with the pattern, so a
round derives nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.comm.errors import (
    CommCorruptionError,
    CommDeadlockError,
    CommRetriesExhaustedError,
)
from repro.comm.simcomm import SimWorld

#: Halo payloads are float64 vector entries.
ENTRY_BYTES = 8


@dataclass
class RankExchange:
    """One rank's side of the halo exchange.

    Attributes:
        send_to: list of ``(dst_rank, local_indices)``; ``local_indices``
            index this rank's owned vector slice.
        recv_from: list of ``(src_rank, ext_positions)``; ``ext_positions``
            index this rank's external buffer (aligned with
            ``col_map_offd``).
        n_ext: size of the external buffer.
    """

    send_to: list[tuple[int, np.ndarray]] = field(default_factory=list)
    recv_from: list[tuple[int, np.ndarray]] = field(default_factory=list)
    n_ext: int = 0

    @property
    def n_neighbors_send(self) -> int:
        """Number of distinct destination ranks."""
        return len(self.send_to)

    @property
    def n_neighbors_recv(self) -> int:
        """Number of distinct source ranks."""
        return len(self.recv_from)


@dataclass
class ExchangePattern:
    """Halo-exchange pattern for all ranks of one distribution.

    ``per_rank`` is the rank-by-rank description; the remaining fields
    are the same round flattened for the post and drain halves of
    :func:`exchange_halo` / :func:`overlapped_halo`.  Messages are posted
    src-major (destinations ascending) and received dst-major (sources
    ascending).

    Attributes:
        send_gather: global index of every shipped entry, in posting
            order — ``x[send_gather]`` is the round's send buffer.
        channels: ``(src, dst)`` of each message, in posting order.
        send_bounds: ``(a, b)`` of each message, in posting order: its
            payload is ``sendbuf[a:b]``.
        receives: ``(src, dst, a, b, c, d)`` of each message, in receive
            order: ``sendbuf[a:b]`` lands in ``ext[c:d]``.
        ext_bounds: rank ``r``'s external buffer (aligned with its
            ``col_map_offd``) is ``ext[ext_bounds[r]:ext_bounds[r+1]]``.
        round_sums: the round's wire traffic as
            :meth:`~repro.comm.traffic.TrafficLog.record_round` takes it:
            ``([(src, messages, bytes), ...], messages, bytes)``.
        p2p_round: the round as
            :meth:`~repro.obs.timeline.TimelineProfiler.on_p2p_round`
            takes it: per-rank ``(out_msgs, out_bytes, in_msgs, in_bytes,
            senders)``.
    """

    offsets: np.ndarray
    per_rank: list[RankExchange]
    send_gather: np.ndarray
    channels: list[tuple[int, int]]
    send_bounds: list[tuple[int, int]]
    receives: list[tuple[int, int, int, int, int, int]]
    ext_bounds: list[int]
    round_sums: tuple[list[tuple[int, int, int]], int, int]
    p2p_round: tuple[
        list[int], list[float], list[int], list[float], list[list[int]]
    ]

    @property
    def nranks(self) -> int:
        """Number of ranks in the distribution."""
        return len(self.per_rank)

    def total_messages(self) -> int:
        """Messages per exchange round (sum over ranks of send neighbors)."""
        return len(self.channels)

    def total_halo_entries(self) -> int:
        """Total external entries received per exchange round."""
        return int(self.send_gather.size)


def owner_of(global_ids: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Owning rank of each global index under a rank-block distribution."""
    gid = np.asarray(global_ids)
    return np.searchsorted(offsets, gid, side="right") - 1


def build_exchange_pattern(
    offsets: np.ndarray, ext_ids_per_rank: list[np.ndarray]
) -> ExchangePattern:
    """Build the halo pattern from each rank's sorted external column ids.

    Args:
        offsets: ``(nranks+1,)`` global row offsets of the block distribution.
        ext_ids_per_rank: per rank, the **sorted unique** global indices it
            needs but does not own (hypre's ``col_map_offd``).

    Returns:
        The full exchange pattern; building it is a symbolic/setup operation
        and records no traffic.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    nranks = len(offsets) - 1
    ext_ids = [np.asarray(e, dtype=np.int64) for e in ext_ids_per_rank]
    n_ext = [int(e.size) for e in ext_ids]
    ext_bounds = np.concatenate(([0], np.cumsum(n_ext, dtype=np.int64)))
    total = int(ext_bounds[-1])
    # Every needed entry, receive side: rank-major, ids ascending.
    gids = np.concatenate(ext_ids) if total else np.zeros(0, dtype=np.int64)
    dst_of = np.repeat(np.arange(nranks), n_ext)
    owner = owner_of(gids, offsets)
    same_rank = dst_of[1:] == dst_of[:-1]
    unsorted = np.flatnonzero(same_rank & (gids[1:] <= gids[:-1]))
    if unsorted.size:
        raise ValueError(
            f"rank {dst_of[unsorted[0]]}: ext ids must be sorted unique"
        )
    owned = np.flatnonzero(owner == dst_of)
    if owned.size:
        raise ValueError(
            f"rank {dst_of[owned[0]]}: ext ids include owned indices"
        )

    # One message per (dst, owner) run; ids ascending => runs contiguous.
    new_run = np.ones(total, dtype=bool)
    new_run[1:] = ~same_rank | (owner[1:] != owner[:-1])
    starts = np.flatnonzero(new_run)
    m_src, m_dst = owner[starts], dst_of[starts]
    ends = np.append(starts[1:], total)
    m_len = ends - starts
    # Posting order: src-major, destinations ascending.
    order = np.lexsort((m_dst, m_src))
    post_b = np.cumsum(m_len[order])
    post_a = post_b - m_len[order]
    m_a = np.empty_like(starts)
    m_a[order] = post_a
    send_gather = np.empty(total, dtype=np.int64)
    send_gather[np.repeat(m_a - starts, m_len) + np.arange(total)] = gids
    send_local = send_gather - np.repeat(offsets[m_src[order]], m_len[order])
    ext_pos = np.arange(total) - np.repeat(ext_bounds[:-1], n_ext)

    per_rank = [RankExchange(n_ext=n) for n in n_ext]
    post_src, post_dst = m_src[order].tolist(), m_dst[order].tolist()
    send_bounds = list(zip(post_a.tolist(), post_b.tolist()))
    for src, dst, (a, b) in zip(post_src, post_dst, send_bounds):
        per_rank[src].send_to.append((dst, send_local[a:b]))
    receives = list(
        zip(
            m_src.tolist(),
            m_dst.tolist(),
            m_a.tolist(),
            (m_a + m_len).tolist(),
            starts.tolist(),
            ends.tolist(),
        )
    )
    senders: list[list[int]] = [[] for _ in range(nranks)]
    for src, dst, _a, _b, c, d in receives:
        per_rank[dst].recv_from.append((src, ext_pos[c:d]))
        senders[dst].append(src)

    out_msgs = np.bincount(m_src, minlength=nranks)
    out_entries = np.bincount(m_src, weights=m_len, minlength=nranks)
    out_bytes = (ENTRY_BYTES * out_entries).astype(np.int64)
    return ExchangePattern(
        offsets=offsets,
        per_rank=per_rank,
        send_gather=send_gather,
        channels=list(zip(post_src, post_dst)),
        send_bounds=send_bounds,
        receives=receives,
        ext_bounds=ext_bounds.tolist(),
        round_sums=(
            [
                (src, n, nbytes)
                for src, (n, nbytes) in enumerate(
                    zip(out_msgs.tolist(), out_bytes.tolist())
                )
                if n
            ],
            len(receives),
            ENTRY_BYTES * total,
        ),
        p2p_round=(
            out_msgs.tolist(),
            out_bytes.astype(np.float64).tolist(),
            np.bincount(m_dst, minlength=nranks).tolist(),
            [float(ENTRY_BYTES * n) for n in n_ext],
            senders,
        ),
    )


@dataclass
class HaloHandle:
    """In-flight state of a halo round between its two halves.

    Made by :func:`exchange_halo_begin` after every send is posted and
    consumed by :func:`exchange_halo_finish`; it never leaves this
    module.  Holds the round's send buffer (a gathered copy, so later
    writes to the vector cannot reach it) so the retry protocol can
    re-post any slice from the sender side.
    """

    pattern: ExchangePattern
    sendbuf: np.ndarray
    #: The round's contiguous external buffer (all ranks, rank-major).
    ext: np.ndarray
    #: Overlap intent: counts ``comm.overlapped_*`` and prices the wait
    #: against send-post clocks instead of receive-arrival clocks.
    overlap: bool = False
    #: Per-rank profiler clocks at post time (None without a profiler
    #: or for a synchronous round).
    posted_at: list[float] | None = None
    finished: bool = False


def exchange_halo_begin(
    world: SimWorld,
    pattern: ExchangePattern,
    owned: np.ndarray | Sequence[np.ndarray],
    overlap: bool = False,
    out: np.ndarray | None = None,
) -> HaloHandle:
    """Post every rank's halo sends and return without receiving.

    The nonblocking half of the exchange (``MPI_Isend`` analogue), for
    this module only: :func:`exchange_halo` and :func:`overlapped_halo`
    are the two places that pair it with :func:`exchange_halo_finish`,
    and lint rule RL007 keeps both names out of every other module.

    One gather packs the round's send buffer; each message is a slice of
    it, posted through :meth:`SimWorld._post_batch` (sequence number,
    CRC32 stamp and fault-injection opportunity per message).

    With ``overlap=True`` the round is counted in the
    ``comm.overlapped_exchanges`` / ``comm.overlapped_messages`` /
    ``comm.overlapped_bytes`` counters and the profiler prices the
    finish-side wait against these *post-time* clocks, so interior
    compute genuinely shrinks the halo wait segments.

    Args:
        world: the simulated world (records traffic).
        pattern: pattern from :func:`build_exchange_pattern`.
        owned: the distributed vector — the global array, or its
            per-rank owned slices in rank order.
        overlap: see above.
        out: receive buffer of ``pattern.total_halo_entries()`` float64
            entries for the round's external values (allocated when
            omitted).
    """
    if not isinstance(owned, np.ndarray):
        if len(owned) != pattern.nranks:
            raise ValueError("need one owned slice per rank")
        owned = np.concatenate(owned)
    x = np.asarray(owned, dtype=np.float64)
    if x.shape != (pattern.offsets[-1],):
        raise ValueError("owned data does not match the distribution")
    n_entries = pattern.total_halo_entries()
    if out is None:
        out = np.empty(n_entries, dtype=np.float64)
    elif out.shape != (n_entries,) or out.dtype != np.float64:
        raise ValueError("out does not match the pattern's external size")
    # A second begin on the same pattern before its finish would
    # double-post every send, and the stale first round's messages would
    # satisfy the second round's receives.
    if id(pattern) in world._halo_inflight:
        world.metrics.counter("comm.double_begin", phase=world.phase).inc()
        raise RuntimeError(
            "exchange_halo_begin called twice on the same pattern "
            "without an intervening exchange_halo_finish"
        )
    world._halo_inflight.add(id(pattern))
    # Post all sends, then receive: matches the MPI_Isend/Irecv structure.
    sendbuf = x[pattern.send_gather]
    world._post_batch(
        pattern.channels,
        [sendbuf[a:b] for a, b in pattern.send_bounds],
        pattern.round_sums,
    )
    posted_at = None
    if overlap:
        _sources, msgs, nbytes = pattern.round_sums
        world.metrics.counter(
            "comm.overlapped_exchanges", phase=world.phase
        ).inc()
        world.metrics.counter(
            "comm.overlapped_messages", phase=world.phase
        ).inc(msgs)
        world.metrics.counter(
            "comm.overlapped_bytes", phase=world.phase
        ).inc(float(nbytes))
        if world.profiler is not None:
            posted_at = world.profiler.on_p2p_post()
    return HaloHandle(
        pattern=pattern,
        sendbuf=sendbuf,
        ext=out,
        overlap=overlap,
        posted_at=posted_at,
    )


def exchange_halo_finish(
    world: SimWorld, handle: HaloHandle
) -> list[np.ndarray]:
    """Drain a posted halo round: the blocking ``MPI_Waitall`` half.

    Runs the bounded retry protocol described at :func:`exchange_halo`
    (drop, corruption, and truncation all consume the retry budget)
    whether or not work ran between the halves, so a split exchange is
    bitwise- and failure-equivalent to a synchronous one.  Returns
    per-rank views of the handle's contiguous external buffer.
    """
    if handle.finished:
        raise RuntimeError("halo handle already finished")
    handle.finished = True
    world._halo_inflight.discard(id(handle.pattern))
    pattern, sendbuf, ext = handle.pattern, handle.sendbuf, handle.ext
    attempts = 1 + max(0, int(world.comm_max_retries))
    for src, dst, a, b, c, d in pattern.receives:
        ext[c:d] = _recv_with_retry(world, sendbuf, src, dst, a, b, attempts)
    if world.profiler is not None:
        # Neighborhood sync: each rank's wait is bounded by its own
        # senders, not the global straggler.  The logical exchange is
        # priced once; fault-injected re-posts stay visible through the
        # comm.retries counters instead of re-pricing the timeline.
        world.profiler.on_p2p_round(
            "halo", *pattern.p2p_round, posted_at=handle.posted_at
        )
    bounds = pattern.ext_bounds
    return [ext[s:e] for s, e in zip(bounds, bounds[1:])]


def exchange_halo(
    world: SimWorld,
    pattern: ExchangePattern,
    owned: np.ndarray | Sequence[np.ndarray],
    out: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Run one halo exchange: gather external entries for every rank.

    Messages travel through the mailbox transport
    (:meth:`SimWorld._post_batch` / :meth:`SimWorld._take`), so they are
    sequence-numbered, checksummed, and exposed to injected
    ``message_drop``/``message_corrupt``/``message_duplicate`` faults.
    The receive side runs a bounded retry protocol: a message that never
    arrived (drop), arrived corrupt, or arrived with the wrong length
    (truncated) is re-requested from its owner up to
    ``world.comm_max_retries`` times (``comm.retries`` /
    ``comm.drops_detected`` counters track every re-request); when the
    budget is exhausted a
    :class:`~repro.comm.errors.CommRetriesExhaustedError` escalates to
    the solver-level recovery ladder.

    The synchronous round is exactly :func:`exchange_halo_begin`
    followed immediately by :func:`exchange_halo_finish`;
    :func:`overlapped_halo` puts the caller's interior compute between
    the same two halves.

    Args:
        world: the simulated world (records traffic).
        pattern: pattern from :func:`build_exchange_pattern`.
        owned: the distributed vector — the global array, or its
            per-rank owned slices in rank order.
        out: optional receive buffer, see :func:`exchange_halo_begin`.

    Returns:
        Per rank, the external buffer aligned with its ``col_map_offd``
        (views of one contiguous buffer — ``out`` when given).
    """
    return exchange_halo_finish(
        world, exchange_halo_begin(world, pattern, owned, out=out)
    )


@contextmanager
def overlapped_halo(
    world: SimWorld,
    pattern: ExchangePattern,
    owned: np.ndarray | Sequence[np.ndarray],
    out: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Scope of one split halo exchange: post on entry, drain on exit.

    The body is the work that overlaps the round — each rank computing
    against its owned data (typically the ``diag``-block SpMV) while
    boundary data is in flight.  Every normal way out of the body
    drains, an early ``return`` included, so a begin without its finish
    cannot be written.  An exception in the body drains nothing and
    leaves the pattern marked in flight: a drain could raise over the
    first error, and :meth:`SimWorld.purge_pending`, which the recovery
    ladder calls on every ``CommError``, owns aborted rounds.

    The round counts into ``comm.overlapped_*`` and its wait is priced
    against the post-time clocks (see :func:`exchange_halo_begin`).
    Arguments are those of :func:`exchange_halo`; yields the round's
    contiguous external buffer (``out`` when given), filled once the
    scope has exited.
    """
    handle = exchange_halo_begin(world, pattern, owned, overlap=True, out=out)
    yield handle.ext
    exchange_halo_finish(world, handle)


def _recv_with_retry(
    world: SimWorld,
    sendbuf: np.ndarray,
    src: int,
    dst: int,
    a: int,
    b: int,
    attempts: int,
) -> np.ndarray:
    """Receive the halo message ``sendbuf[a:b]`` on channel ``src -> dst``,
    re-requesting on drop/corruption.

    Each retry re-posts the message from the (uncorrupted) sender-side
    slice — the simulated analogue of an MPI-level NACK + resend — and
    every re-post is a fresh fault-injection opportunity, so consecutive
    scheduled drops can exhaust the budget deterministically in tests.

    A payload of the wrong length (truncation) is a corruption like any
    other: it consumes the retry budget here instead of escalating
    immediately past it.
    """
    last_error = ""
    for attempt in range(attempts):
        if attempt > 0:
            world.metrics.counter("comm.retries", phase=world.phase).inc()
            world._post(src, dst, sendbuf[a:b])
        try:
            payload = world._take(src, dst)
        except CommDeadlockError:
            # Nothing pending on this channel: the message was dropped
            # on the wire (a true deadlock would leave nothing to resend).
            world.metrics.counter(
                "comm.drops_detected", phase=world.phase
            ).inc()
            last_error = "dropped"
            continue
        except CommCorruptionError:
            # comm.corrupt_detected was already counted by _take.
            last_error = "corrupt"
            continue
        if getattr(payload, "shape", None) != (b - a,):
            # Wrong-length payload: the envelope checksum passed but the
            # content cannot be scattered — treat as corruption and
            # re-request within the same budget.
            world.metrics.counter(
                "comm.corrupt_detected", phase=world.phase
            ).inc()
            last_error = "truncated"
            continue
        return payload
    raise CommRetriesExhaustedError(
        f"halo message {src} -> {dst} failed after {attempts} "
        f"attempt(s) in phase {world.phase!r} (last error: {last_error})",
        phase=world.phase,
        src=src,
        dst=dst,
        attempts=attempts,
        last_error=last_error,
    )
