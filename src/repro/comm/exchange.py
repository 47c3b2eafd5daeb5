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

A round is also the unit of delivery: one checksum per message, stamped
and verified in one pass; only a message that was dropped or fails its
checksum is walked on its own.  An open round sits in its world's registry
and nothing but its own finish reads it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.comm.errors import CommRetriesExhaustedError
from repro.comm.simcomm import SimWorld

#: Halo payloads are float64 vector entries.
ENTRY_BYTES = 8

#: Message starts of a buffer checksummed as one message.
_WHOLE = np.zeros(1, dtype=np.intp)


def _checksums(buf: np.ndarray, starts: np.ndarray = _WHOLE) -> np.ndarray:
    """Per-message sums of ``buf``'s 64-bit words, wrapping mod 2**64, for
    messages starting at ``starts``: a changed word moves its message's sum
    by the (nonzero) difference, so every single-bit flip and every
    single-word change is caught."""
    return np.add.reduceat(buf.view(np.uint64), starts)


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
        channel_index: the same as two arrays ``(src, dst)``, for indexing
            a rank-by-rank table.
        send_bounds: ``(a, b)`` of each message, in posting order: its
            payload is ``sendbuf[a:b]``.
        send_starts: the ``a`` of each message, as an array.
        receives: ``(src, dst, a, b, c, d)`` of each message, in receive
            order: ``sendbuf[a:b]`` lands in ``ext[c:d]``.
        recv_pos: receive position of each message, in posting order.
        recv_gather: ``ext = sendbuf[recv_gather]``.
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
    channel_index: tuple[np.ndarray, np.ndarray]
    send_bounds: list[tuple[int, int]]
    send_starts: np.ndarray
    receives: list[tuple[int, int, int, int, int, int]]
    recv_pos: np.ndarray
    recv_gather: np.ndarray
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
    recv_gather = np.repeat(m_a - starts, m_len) + np.arange(total)
    send_gather = np.empty(total, dtype=np.int64)
    send_gather[recv_gather] = gids
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
        channel_index=(m_src[order], m_dst[order]),
        send_bounds=send_bounds,
        send_starts=post_a,
        receives=receives,
        recv_pos=order,
        recv_gather=recv_gather,
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


@dataclass(eq=False)
class HaloHandle:
    """One halo round from its post to its delivery.

    Made by :func:`exchange_halo_begin`, which registers it with the
    world, and consumed by :func:`exchange_halo_finish`.  Holds the
    round's send buffer (a gathered copy, so later writes to the vector
    cannot reach it) so a message can be re-posted from the sender side.
    """

    pattern: ExchangePattern
    sendbuf: np.ndarray
    #: The checksum of each message at post, in posting order.
    sums: np.ndarray
    #: Phase label at post time.
    phase: str
    #: The round's contiguous external buffer (all ranks, rank-major).
    ext: np.ndarray
    #: What arrived: ``sendbuf`` itself unless a copy was corrupted in
    #: flight.
    wire: np.ndarray
    #: Copies of each message that arrived (0: dropped, 2: duplicated),
    #: in posting order; None when every message arrived once.
    copies: np.ndarray | None = None
    #: Messages posted and not delivered; what a purge counts.
    pending: int = 0
    #: Per-rank profiler clocks at post time (None without a profiler
    #: or for a synchronous round): the wait is priced against them.
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

    One gather packs the round's send buffer and one call stamps every
    message's checksum.  The round advances each of its channels'
    sequence numbers, gives an installed fault injector one opportunity
    per message in posting order, is recorded once in the traffic log
    (plus one record per injected duplicate) and opens in the world's
    registry.

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
    # A second begin on the same pattern before its finish would post the
    # round twice over the one external buffer.
    if any(r.pattern is pattern and not r.finished for r in world._open_rounds):
        world.metrics.counter("comm.double_begin", phase=world.phase).inc()
        raise RuntimeError(
            "exchange_halo_begin called twice on the same pattern "
            "without an intervening exchange_halo_finish"
        )
    phase = world.phase
    sendbuf = x[pattern.send_gather]
    seqs = world._next_seq[pattern.channel_index]
    world._next_seq[pattern.channel_index] += 1
    handle = HaloHandle(
        pattern=pattern,
        sendbuf=sendbuf,
        sums=_checksums(sendbuf, pattern.send_starts),
        phase=phase,
        ext=out,
        wire=sendbuf,
        pending=pattern.total_messages(),
    )
    if world.fault_injector is not None:
        _inject(world, handle, seqs)
    if world.hub.has("exchange"):
        copies = handle.copies
        for i, ((src, dst), (a, b)) in enumerate(
            zip(pattern.channels, pattern.send_bounds)
        ):
            # A dropped message was still sent: it is lost on the wire.
            for _ in range(1 if copies is None else int(copies[i]) or 1):
                world.hub.emit(
                    "exchange",
                    kind="p2p",
                    src=src,
                    dst=dst,
                    nbytes=ENTRY_BYTES * (b - a),
                    phase=phase,
                )
    world.traffic.record_round(*pattern.round_sums, phase)
    world._open_rounds.append(handle)
    if overlap:
        _sources, msgs, nbytes = pattern.round_sums
        world.metrics.counter("comm.overlapped_exchanges", phase=phase).inc()
        world.metrics.counter("comm.overlapped_messages", phase=phase).inc(
            msgs
        )
        world.metrics.counter("comm.overlapped_bytes", phase=phase).inc(
            float(nbytes)
        )
        if world.profiler is not None:
            handle.posted_at = world.profiler.on_p2p_post()
    return handle


def exchange_halo_finish(
    world: SimWorld, handle: HaloHandle
) -> list[np.ndarray]:
    """Deliver a posted halo round: the blocking ``MPI_Waitall`` half.

    Checks every message against its checksum in one pass, runs the
    bounded retry protocol described at :func:`exchange_halo` for the
    ones that were dropped or corrupted, and fills the external buffer
    with one gather — whether or not work ran between the halves, so a
    split exchange is bitwise- and failure-equivalent to a synchronous
    one.  Returns per-rank views of that buffer.
    """
    if handle.finished:
        raise RuntimeError("halo handle already finished")
    handle.finished = True
    pattern = handle.pattern
    ok = _checksums(handle.wire, pattern.send_starts) == handle.sums
    if handle.copies is not None:
        ok &= handle.copies > 0
    if handle.copies is not None or not ok.all():
        _redeliver(world, handle, ok)
    world._open_rounds.remove(handle)
    np.take(handle.wire, pattern.recv_gather, out=handle.ext)
    if world.profiler is not None:
        # Neighborhood sync: each rank's wait is bounded by its own
        # senders, not the global straggler.  The logical exchange is
        # priced once; fault-injected re-posts stay visible through the
        # comm.retries counters instead of re-pricing the timeline.
        world.profiler.on_p2p_round(
            "halo", *pattern.p2p_round, posted_at=handle.posted_at
        )
    bounds = pattern.ext_bounds
    return [handle.ext[s:e] for s, e in zip(bounds, bounds[1:])]


def exchange_halo(
    world: SimWorld,
    pattern: ExchangePattern,
    owned: np.ndarray | Sequence[np.ndarray],
    out: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Run one halo exchange: gather external entries for every rank.

    Every message is sequence-numbered, checksummed, and exposed to
    injected ``message_drop``/``message_corrupt``/``message_duplicate``
    faults.  The receive side runs a bounded retry protocol: a message
    that never arrived (drop) or arrived corrupt is re-requested from its
    owner up to ``world.comm_max_retries`` times (``comm.retries`` /
    ``comm.drops_detected`` / ``comm.corrupt_detected`` count every
    re-request), and extra copies are discarded
    (``comm.duplicates_discarded``); when the budget is exhausted a
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
    leaves the round open, its pattern in flight: a drain could raise
    over the first error, and :meth:`SimWorld.purge_pending`, which the
    recovery ladder calls on every ``CommError``, owns aborted rounds.

    The round counts into ``comm.overlapped_*`` and its wait is priced
    against the post-time clocks (see :func:`exchange_halo_begin`).
    Arguments are those of :func:`exchange_halo`; yields the round's
    contiguous external buffer (``out`` when given), filled once the
    scope has exited.
    """
    handle = exchange_halo_begin(world, pattern, owned, overlap=True, out=out)
    yield handle.ext
    exchange_halo_finish(world, handle)


def _inject(world: SimWorld, handle: HaloHandle, seqs: np.ndarray) -> None:
    """Offer each message of a just-posted round to the fault injector,
    in posting order: a corrupted copy replaces its slice on the wire, a
    duplicate is one more transmission."""
    injector, phase = world.fault_injector, handle.phase
    pattern, sendbuf = handle.pattern, handle.sendbuf
    copies = np.ones(pattern.total_messages(), dtype=np.int64)
    for i, ((src, dst), (a, b)) in enumerate(
        zip(pattern.channels, pattern.send_bounds)
    ):
        payload = sendbuf[a:b]
        landed = injector.on_post(phase, src, dst, int(seqs[i]), payload)
        copies[i] = len(landed)
        if landed and landed[0] is not payload:
            if handle.wire is sendbuf:
                handle.wire = sendbuf.copy()
            handle.wire[a:b] = landed[0]
        for _ in landed[1:]:
            world.traffic.record_message(src, dst, payload.nbytes, phase)
    handle.copies = copies
    handle.pending = int(copies.sum())


def _repost(world: SimWorld, handle: HaloHandle, p: int) -> list[np.ndarray]:
    """Re-post message ``p`` from the sender's clean slice (an MPI-level
    NACK + resend): the channel's next sequence number, a fresh injector
    opportunity, one record per transmission.  Returns what landed."""
    (src, dst), (a, b) = handle.pattern.channels[p], handle.pattern.send_bounds[p]
    seq = int(world._next_seq[src, dst])
    world._next_seq[src, dst] += 1
    phase, payload = world.phase, handle.sendbuf[a:b]
    injector = world.fault_injector
    landed = (
        [payload]
        if injector is None
        else injector.on_post(phase, src, dst, seq, payload)
    )
    observed = world.hub.has("exchange")
    for _ in range(len(landed) or 1):
        world.traffic.record_message(src, dst, payload.nbytes, phase)
        if observed:
            world.hub.emit(
                "exchange",
                kind="p2p",
                src=src,
                dst=dst,
                nbytes=payload.nbytes,
                phase=phase,
            )
    return landed


def _redeliver(world: SimWorld, handle: HaloHandle, ok: np.ndarray) -> None:
    """Walk the messages that did not arrive intact (``~ok``), in receive
    order: each is re-posted until a copy passes its checksum, at most
    ``world.comm_max_retries`` times, and written into the wire buffer.
    Extra copies of delivered messages are discarded.

    Consecutive scheduled drops can exhaust the budget deterministically:
    the round then stays open with its later messages undelivered, for
    :meth:`SimWorld.purge_pending` to count, and
    :class:`~repro.comm.errors.CommRetriesExhaustedError` escalates.
    """
    pattern = handle.pattern
    copies = handle.copies
    if copies is None:
        copies = np.ones(pattern.total_messages(), dtype=np.int64)
    wire, recv_pos = handle.wire, pattern.recv_pos
    attempts = 1 + max(0, int(world.comm_max_retries))

    def count(name: str) -> None:
        world.metrics.counter(name, phase=world.phase).inc()

    bad = np.flatnonzero(~ok)
    for p in bad[np.argsort(recv_pos[bad], kind="stable")].tolist():
        a, b = pattern.send_bounds[p]
        landed = [wire[a:b]] * int(copies[p])
        for attempt in range(attempts):
            if attempt > 0:
                count("comm.retries")
                landed = _repost(world, handle, p)
            if not landed:
                count("comm.drops_detected")
                last_error = "dropped"
            elif _checksums(landed[0])[0] != handle.sums[p]:
                count("comm.corrupt_detected")
                last_error = "corrupt"
            else:
                wire[a:b] = landed[0]
                copies[p] = len(landed)
                break
        else:
            later = recv_pos > recv_pos[p]
            handle.pending = int(copies[later].sum())
            _discard_duplicates(world, copies[recv_pos < recv_pos[p]])
            src, dst = pattern.channels[p]
            raise CommRetriesExhaustedError(
                f"halo message {src} -> {dst} failed after {attempts} "
                f"attempt(s) in phase {world.phase!r} "
                f"(last error: {last_error})",
                phase=world.phase,
                src=src,
                dst=dst,
                attempts=attempts,
                last_error=last_error,
            )
    _discard_duplicates(world, copies)


def _discard_duplicates(world: SimWorld, delivered: np.ndarray) -> None:
    """Count the extra copies of the delivered messages as discarded."""
    extra = int(delivered.sum()) - delivered.size
    if extra:
        world.metrics.counter(
            "comm.duplicates_discarded", phase=world.phase
        ).inc(extra)
