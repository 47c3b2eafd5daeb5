"""In-process SPMD rank simulator.

:class:`SimWorld` stands in for ``MPI_COMM_WORLD``: it fixes the number of
ranks, owns the :class:`~repro.comm.traffic.TrafficLog`, and provides
world-level exchange operations that the rest of the library uses in
rank-indexed ("list of per-rank arrays") style.  :class:`SimComm` is the
per-rank handle with MPI-like ``send``/``recv`` semantics backed by a
mailbox, used where the paper's algorithms are written in per-rank form
(e.g. Algorithm 1 step 2-3).

All exchanges move *real* data, so the numerics downstream (hybrid smoothers,
additive Schwarz, assembly) behave exactly as they would distributed; the log
only adds accounting on top.

Point-to-point messages travel in :class:`MessageEnvelope` wrappers that
carry a per-channel sequence number and a CRC32 payload checksum, so the
receiving side detects dropped, duplicated, and corrupted messages (the
fault classes :class:`~repro.resilience.injection.FaultInjector` injects
on the p2p path) instead of silently consuming them.
"""

from __future__ import annotations

import zlib
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.comm.errors import (
    CommCorruptionError,
    CommDeadlockError,
    MailboxLeakError,
)
from repro.comm.traffic import TrafficLog
from repro.obs.hooks import ObserverHub
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer


def _nbytes(payload: Any) -> int:
    """Byte size of a message payload (ndarray, scalar, or tuple of them)."""
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (tuple, list)):
        return sum(_nbytes(p) for p in payload)
    if isinstance(payload, (int, np.integer)):
        return 8
    if isinstance(payload, (float, np.floating)):
        return 8
    return 8


def payload_checksum(payload: Any) -> int:
    """CRC32 checksum of a message payload.

    Covers ndarray contents (any dtype), scalars, and tuples/lists of
    them — the payload shapes the exchange paths actually post.  The
    checksum is over raw value bytes, so any single-bit corruption of a
    delivered array flips it.
    """
    if isinstance(payload, np.ndarray):
        try:
            # Straight over the array's buffer: no bytes copy.
            return zlib.crc32(payload)
        except ValueError:
            # Strided view: pack to C order, the bytes ``tobytes`` reads.
            return zlib.crc32(np.ascontiguousarray(payload))
    crc = 0
    if isinstance(payload, (tuple, list)):
        for p in payload:
            crc = zlib.crc32(payload_checksum(p).to_bytes(4, "little"), crc)
        return crc
    return zlib.crc32(repr(payload).encode())


@dataclass(slots=True)
class MessageEnvelope:
    """One point-to-point message on the simulated wire.

    Attributes:
        seq: per-``(src, dst)`` channel sequence number (0-based,
            monotonically increasing per post).
        src: sending rank.
        dst: receiving rank.
        phase: phase label active at post time.
        payload: the message body.
        checksum: CRC32 of the payload at post time (see
            :func:`payload_checksum`).  Verified on receive; a mismatch
            means in-flight corruption.
    """

    seq: int
    src: int
    dst: int
    phase: str
    payload: Any
    checksum: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.checksum < 0:
            self.checksum = payload_checksum(self.payload)

    def verify(self) -> bool:
        """True when the payload still matches its post-time checksum."""
        return payload_checksum(self.payload) == self.checksum


class SimWorld:
    """A simulated world of ``size`` ranks sharing one traffic log."""

    def __init__(self, size: int, seed: int = 0) -> None:
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        self.size = int(size)
        self.traffic = TrafficLog()
        # Late import: perf.opcounts has no dependency on comm, so this
        # cannot cycle; attaching the recorder here gives every consumer a
        # single object (the world) to thread through.
        from repro.perf.opcounts import OpRecorder

        self.ops = OpRecorder()
        # Observability: one hub + one metrics registry per world, so every
        # layer holding the world (equation systems, AMG setup, exchanges)
        # publishes into a single telemetry stream.
        self.hub = ObserverHub()
        self.metrics = MetricsRegistry()
        # Host clock: every phase scope opens its span here (the
        # simulation driver swaps in a tracer fed by ``config.clock``) and
        # adds the span's duration to the flat per-label record
        # ``label -> {"total_s", "count"}`` at exit.
        self.tracer = Tracer()
        self.phase_wall: dict[str, dict[str, float]] = {}
        # Resilience: optional seeded FaultInjector (see
        # repro.resilience.injection); when set, world-level exchanges give
        # it the chance to corrupt payloads deterministically.
        self.fault_injector: Any = None
        # Bounded-retry budget of the halo-exchange protocol
        # (re-deliveries per logical message after the first attempt);
        # configured from RecoveryPolicy.comm_max_retries by the
        # simulation driver.
        self.comm_max_retries = 2
        # Leak checking at barriers: a posted-but-unreceived message at a
        # synchronization point is a protocol bug (see assert_no_pending).
        self.leak_check = True
        # Optional per-rank timeline profiler (repro.obs.timeline); when
        # set, phase transitions and world-level sync points notify it so
        # it can advance simulated rank clocks and attribute comm waits.
        self.profiler: Any = None
        # Optional cross-job assembly-plan cache (repro.assembly.plan
        # .PlanCache); the campaign runner attaches one so sweep jobs with
        # identical mesh topology adopt each other's captured plans
        # instead of re-running the cold sort/reduce/split capture.
        self.plan_cache: Any = None
        self.rng = np.random.default_rng(seed)
        self._phase_stack: list[str] = ["default"]
        self._mailboxes: dict[tuple[int, int], deque[MessageEnvelope]] = {}
        self._next_seq: dict[tuple[int, int], int] = {}
        self._last_delivered: dict[tuple[int, int], int] = {}
        #: Patterns (by id) with a posted-but-unfinished split halo
        #: exchange — exchange_halo_begin's double-begin guard.
        self._halo_inflight: set[int] = set()

    # -- phase labeling ----------------------------------------------------

    @property
    def phase(self) -> str:
        """Currently active phase label."""
        return self._phase_stack[-1]

    @contextmanager
    def phase_scope(self, label: str) -> Iterator[Span]:
        """Run the ``with`` block as phase ``label`` — the one phase boundary.

        Entering pushes the attribution label (traffic and op counts
        recorded inside land under it), tells the profiler, and opens the
        host span, which is yielded: its ``duration`` is the stage's wall
        time, added to :attr:`phase_wall` at exit, exception or not.

        Pushes and pops are checked: exiting verifies the popped label is
        the one this scope pushed, so stack corruption (e.g. an observer
        mutating ``_phase_stack``) raises immediately instead of silently
        misattributing all subsequent traffic.
        """
        self._phase_stack.append(label)
        if self.profiler is not None:
            self.profiler.on_phase_begin(label)
        try:
            with self.tracer.span(label) as span:
                yield span
        finally:
            self._pop_phase(label)
            wall = self.phase_wall.setdefault(
                label, {"total_s": 0.0, "count": 0}
            )
            wall["total_s"] += span.duration
            wall["count"] += 1

    @contextmanager
    def marked_span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Host span plus the profiler marker of the same name and attrs.

        For the run structure around the phases (``step``, ``picard``):
        no label is pushed and nothing is added to :attr:`phase_wall`.
        """
        if self.profiler is not None:
            self.profiler.on_marker(name, **attrs)
        with self.tracer.span(name, **attrs) as span:
            yield span

    def _pop_phase(self, label: str) -> None:
        """Pop one phase label, validating stack balance."""
        if len(self._phase_stack) <= 1:
            raise RuntimeError(
                f"phase stack underflow: cannot pop {label!r}; the base "
                "'default' phase is permanent — phase_scope exits are "
                "unbalanced"
            )
        popped = self._phase_stack.pop()
        if popped != label:
            raise RuntimeError(
                f"unbalanced phase stack: popped {popped!r} while closing "
                f"scope {label!r}; traffic since the mismatch is "
                "misattributed"
            )
        if self.profiler is not None:
            self.profiler.on_phase_end(popped)

    # -- rank handles ------------------------------------------------------

    def comm(self, rank: int) -> "SimComm":
        """Per-rank communicator handle."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for world of {self.size}")
        return SimComm(self, rank)

    def comms(self) -> list["SimComm"]:
        """Handles for all ranks, index == rank."""
        return [SimComm(self, r) for r in range(self.size)]

    # -- mailbox primitives (used by SimComm) -------------------------------

    def _post(self, src: int, dst: int, payload: Any) -> None:
        """Post one point-to-point message from ``src`` to ``dst``: the
        one-message case of :meth:`_post_batch`, accounted on its own."""
        self._post_batch(((src, dst),), (payload,))

    def _post_batch(
        self,
        channels: Iterable[tuple[int, int]],
        payloads: Iterable[Any],
        round_sums: tuple[list[tuple[int, int, int]], int, int] | None = None,
    ) -> None:
        """Post messages on ``(src, dst)`` ``channels``, in order.

        The one implementation of the envelope protocol.  Every payload
        travels in a sequence-numbered, checksummed
        :class:`MessageEnvelope`.  When a fault injector is installed it
        sees every envelope (:meth:`FaultInjector.on_post`), in posting
        order, and may drop it, corrupt the payload in flight, or
        duplicate it.

        Wire accounting is one traffic record (and, while someone
        observes ``exchange``, one ``kind="p2p"`` hub event) per
        transmission that left the sender: a dropped message was still
        sent — it is lost on the wire, not at the source — and a
        duplicate transmits twice.  A caller that knows the whole round
        beforehand passes ``round_sums`` (the arguments of
        :meth:`TrafficLog.record_round`): first transmissions are then
        recorded once for the round, only injected extra transmissions
        one by one, and the aggregates come out the same.
        """
        phase = self.phase
        next_seq, boxes = self._next_seq, self._mailboxes
        injector = self.fault_injector
        observed = self.hub.has("exchange")
        # Transmissions per message that ``round_sums`` already covers.
        covered = 0 if round_sums is None else 1
        for key, payload in zip(channels, payloads):
            seq = next_seq.get(key, 0)
            next_seq[key] = seq + 1
            src, dst = key
            env = MessageEnvelope(
                seq, src, dst, phase, payload, payload_checksum(payload)
            )
            envelopes: Sequence[MessageEnvelope] = (
                (env,) if injector is None else injector.on_post(env)
            )
            if envelopes:
                box = boxes.get(key)
                if box is None:
                    box = boxes[key] = deque()
                box.extend(envelopes)
            n_wire = len(envelopes) or 1
            if observed or n_wire > covered:
                nbytes = _nbytes(payload)
                for _ in range(n_wire - covered):
                    self.traffic.record_message(src, dst, nbytes, phase)
                for _ in range(n_wire if observed else 0):
                    self.hub.emit(
                        "exchange",
                        kind="p2p",
                        src=src,
                        dst=dst,
                        nbytes=nbytes,
                        phase=phase,
                    )
        if round_sums is not None:
            self.traffic.record_round(*round_sums, phase)

    def _take(self, src: int, dst: int) -> Any:
        """Receive the oldest pending payload on channel ``(src, dst)``.

        Validates the envelope: duplicates (sequence number at or below
        the last delivered one) are discarded with a
        ``comm.duplicates_discarded`` count; a checksum mismatch raises
        :class:`~repro.comm.errors.CommCorruptionError`; an empty channel
        raises :class:`~repro.comm.errors.CommDeadlockError` carrying a
        snapshot of every pending mailbox.
        """
        key = (src, dst)
        box = self._mailboxes.get(key)
        last = self._last_delivered.get(key, -1)
        # Skip stale duplicates queued ahead of the next fresh message.
        while box and box[0].seq <= last:
            box.popleft()
            self.metrics.counter(
                "comm.duplicates_discarded", phase=self.phase
            ).inc()
        if not box:
            raise CommDeadlockError(
                f"recv from rank {src} on rank {dst}: no message posted "
                f"(simulated deadlock) in phase {self.phase!r}; "
                f"{self.pending_messages()} message(s) pending elsewhere",
                phase=self.phase,
                src=src,
                dst=dst,
                pending=self.pending_summary(),
            )
        env = box.popleft()
        if not env.verify():
            self.metrics.counter(
                "comm.corrupt_detected", phase=self.phase
            ).inc()
            raise CommCorruptionError(
                f"message {src} -> {dst} seq {env.seq} failed its payload "
                f"checksum (posted in phase {env.phase!r})",
                phase=self.phase,
                src=src,
                dst=dst,
                seq=env.seq,
                expected_checksum=env.checksum,
                actual_checksum=payload_checksum(env.payload),
            )
        self._last_delivered[key] = env.seq
        # Drop trailing duplicates of the message just delivered so they
        # cannot linger as mailbox leaks past the next barrier.
        while box and box[0].seq <= env.seq:
            box.popleft()
            self.metrics.counter(
                "comm.duplicates_discarded", phase=self.phase
            ).inc()
        return env.payload

    def pending_messages(self) -> int:
        """Number of posted-but-unreceived messages (should be 0 at sync points)."""
        return sum(len(b) for b in self._mailboxes.values())

    def pending_summary(self) -> list[dict[str, Any]]:
        """Snapshot of every non-empty mailbox.

        Returns one ``{"src", "dst", "phase", "count", "seqs"}`` entry
        per channel holding undelivered messages, where ``phase`` is the
        label the oldest pending message was posted under — exactly the
        context a leak report needs.
        """
        out: list[dict[str, Any]] = []
        for (src, dst), box in sorted(self._mailboxes.items()):
            if not box:
                continue
            out.append(
                {
                    "src": src,
                    "dst": dst,
                    "phase": box[0].phase,
                    "count": len(box),
                    "seqs": [env.seq for env in box],
                }
            )
        return out

    def purge_pending(self, reason: str = "") -> int:
        """Drop every in-flight message and reset channel sequence state.

        The escalation path calls this after a transport failure aborts
        an exchange mid-round: messages already posted for the aborted
        round would otherwise be mis-delivered to the next round (wrong
        shapes, stale sequence numbers) and poison every retry — the
        simulated analogue of tearing down and re-establishing
        communicators after an MPI fault.  Purged messages are counted
        under ``comm.purged`` (labeled with ``reason``).  Returns the
        number of messages dropped.
        """
        purged = self.pending_messages()
        if purged:
            self.metrics.counter(
                "comm.purged", phase=self.phase, reason=reason
            ).inc(purged)
        self._mailboxes.clear()
        self._next_seq.clear()
        self._last_delivered.clear()
        # The aborted round's begins died with their messages; a fresh
        # begin on the same pattern must not trip the double-begin guard.
        self._halo_inflight.clear()
        return purged

    def assert_no_pending(self, context: str = "") -> None:
        """Raise :class:`MailboxLeakError` when any message is pending.

        Called at barriers (when :attr:`leak_check` is on) and usable by
        tests at end-of-phase: an undelivered message at a
        synchronization point means an exchange protocol leaked a
        payload — on real MPI, a hang or a late-delivery bug.
        """
        pending = self.pending_summary()
        if not pending:
            return
        where = f" at {context}" if context else ""
        detail = "; ".join(
            f"{p['count']} from rank {p['src']} to rank {p['dst']} "
            f"(posted in phase {p['phase']!r})"
            for p in pending
        )
        raise MailboxLeakError(
            f"{self.pending_messages()} message(s) leaked{where}: {detail}",
            phase=self.phase,
            pending=pending,
        )

    # -- world-level exchanges ----------------------------------------------

    def alltoallv(self, send: Sequence[Sequence[Any]]) -> list[list[Any]]:
        """Personalized all-to-all.

        ``send[r][q]`` is the payload rank ``r`` sends to rank ``q`` (``None``
        to send nothing).  Returns ``recv`` with ``recv[q][i]`` the payloads
        received by rank ``q`` in sender-rank order.  Only non-``None``,
        non-empty payloads are transmitted and recorded; the diagonal
        ``src == dst`` payload is delivered locally without touching the
        traffic log — a rank keeping its own data is a memory copy, not a
        network message (``SimComm.send`` rejects self-sends for the same
        reason).

        While someone observes ``exchange``, every transmitted payload
        emits a per-message hub event (``kind="p2p"``) exactly like
        :meth:`_post_batch` does, so hub-derived message counts agree
        with the :class:`TrafficLog` aggregates; one summary event
        (``kind="alltoallv"``) closes the exchange.
        """
        if len(send) != self.size:
            raise ValueError("alltoallv needs one send row per rank")
        phase = self.phase
        observed = self.hub.has("exchange")
        recv: list[list[Any]] = [[] for _ in range(self.size)]
        out_msgs = [0] * self.size
        out_bytes = [0.0] * self.size
        in_msgs = [0] * self.size
        in_bytes = [0.0] * self.size
        for src in range(self.size):
            row = send[src]
            if len(row) != self.size:
                raise ValueError("alltoallv send rows must have world-size entries")
            for dst in range(self.size):
                payload = row[dst]
                if payload is None:
                    continue
                if isinstance(payload, np.ndarray) and payload.size == 0:
                    continue
                if dst != src:
                    nbytes = _nbytes(payload)
                    self.traffic.record_message(src, dst, nbytes, phase)
                    out_msgs[src] += 1
                    out_bytes[src] += nbytes
                    in_msgs[dst] += 1
                    in_bytes[dst] += nbytes
                    if observed:
                        self.hub.emit(
                            "exchange",
                            kind="p2p",
                            src=src,
                            dst=dst,
                            nbytes=nbytes,
                            phase=phase,
                        )
                recv[dst].append(payload)
        if self.fault_injector is not None:
            self.fault_injector.on_alltoallv(recv, phase=phase)
        self.hub.emit("exchange", kind="alltoallv", phase=phase)
        if self.profiler is not None:
            # Repartitioning all-to-alls are globally synchronizing
            # (senders_to=None): every rank waits for the straggler.
            self.profiler.on_p2p_round(
                "alltoallv", out_msgs, out_bytes, in_msgs, in_bytes, None
            )
        return recv

    def allreduce(
        self, values: Sequence[Any], op: Callable[[Sequence[Any]], Any] = sum
    ) -> Any:
        """All-reduce of one value per rank; every rank gets the same result."""
        if len(values) != self.size:
            raise ValueError("allreduce needs one value per rank")
        self.collective("allreduce", _nbytes(values[0]))
        return op(values)

    def allgather(self, values: Sequence[Any]) -> list[Any]:
        """All-gather of one value per rank; returns the full list."""
        if len(values) != self.size:
            raise ValueError("allgather needs one value per rank")
        self.collective("allgather", _nbytes(values[0]))
        return list(values)

    def barrier(self) -> None:
        """Synchronization point; charges a zero-byte collective.

        With :attr:`leak_check` on (the default), also asserts that no
        posted message is still undelivered — every rank reaching a
        barrier with messages in flight is a protocol bug.
        """
        if self.leak_check:
            self.assert_no_pending(context="barrier")
        self.collective("barrier", 0)

    # -- the ledger verbs ----------------------------------------------------
    #
    # The only writers of the modeled-clock sinks (``ops``, ``traffic``,
    # the hub's ``exchange`` stream, the timeline profiler) outside this
    # package: each reads the active phase itself and reaches every sink,
    # so a kernel names its work and nothing else (RL007 pins it).

    def charge(
        self,
        kernel: str,
        flops: float | Sequence[float] = 0.0,
        nbytes: float | Sequence[float] = 0.0,
        launches: int | Sequence[int] = 1,
        ranks: Sequence[int] | None = None,
    ) -> None:
        """Charge one invocation of ``kernel`` on each of ``ranks`` (every
        rank when omitted) to the active phase.

        A scalar ``flops``/``nbytes`` is every rank's share; a sequence
        holds one value per rank, in ``ranks`` order.  Tallies accumulate
        in that order (:meth:`OpRecorder.record_ranks`).
        """
        if ranks is None:
            ranks = range(self.size)
        if not hasattr(flops, "__len__"):
            flops = [flops] * len(ranks)
        if not hasattr(nbytes, "__len__"):
            nbytes = [nbytes] * len(ranks)
        self.ops.record_ranks(
            self.phase, kernel, flops, nbytes, launches, ranks
        )

    def charge_alloc(
        self,
        nbytes: float | Sequence[float],
        ranks: Sequence[int] | None = None,
    ) -> None:
        """Charge a device allocation (negative frees) on each of
        ``ranks`` (every rank when omitted): a scalar is every rank's
        share, a sequence one value per rank."""
        if ranks is None:
            ranks = range(self.size)
        if not hasattr(nbytes, "__len__"):
            nbytes = [nbytes] * len(ranks)
        for r, b in zip(ranks, nbytes):
            self.ops.record_alloc(r, b)

    def charge_messages(
        self, src: int, dst: int, count: int, nbytes: int
    ) -> None:
        """Charge ``count`` modeled messages ``src`` -> ``dst`` totalling
        ``nbytes`` to the active phase.  No data moves and no round is
        priced on the timeline: this is calibrated overhead (the AMG
        set-up rounds), not an exchange the simulator performs."""
        self.traffic.record_messages(src, dst, count, nbytes, self.phase)

    def collective(self, kind: str, nbytes: int) -> None:
        """Charge one collective of ``nbytes`` per rank to the active
        phase, on every sink: the traffic log, the hub's ``exchange``
        stream and the timeline profiler.  It charges; it moves no data
        (:meth:`allreduce` / :meth:`allgather` / :meth:`barrier` do, on
        top of it) — for reductions whose arithmetic the caller does on
        the global array, where per-rank partials would change the sum.
        """
        phase = self.phase
        self.traffic.record_collective(kind, self.size, nbytes, phase)
        self.hub.emit("exchange", kind=kind, nbytes=nbytes, phase=phase)
        if self.profiler is not None:
            self.profiler.on_collective(kind, nbytes)


class SimComm:
    """Per-rank communicator handle with MPI-like point-to-point calls."""

    def __init__(self, world: SimWorld, rank: int) -> None:
        self.world = world
        self.rank = int(rank)

    @property
    def size(self) -> int:
        """World size."""
        return self.world.size

    def send(self, dst: int, payload: Any) -> None:
        """Post ``payload`` to rank ``dst`` (non-blocking semantics)."""
        if dst == self.rank:
            raise ValueError("self-sends are not modeled; handle locally")
        self.world._post(self.rank, dst, payload)

    def recv(self, src: int) -> Any:
        """Receive the oldest pending payload from rank ``src``."""
        return self.world._take(src, self.rank)
