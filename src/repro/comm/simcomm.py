"""In-process SPMD rank simulator.

:class:`SimWorld` stands in for ``MPI_COMM_WORLD``: it fixes the number of
ranks, owns the :class:`~repro.comm.traffic.TrafficLog`, and provides
world-level exchange operations that the rest of the library uses in
rank-indexed ("list of per-rank arrays") style.

All exchanges move *real* data, so the numerics downstream (hybrid smoothers,
additive Schwarz, assembly) behave exactly as they would distributed; the log
only adds accounting on top.

Point-to-point traffic is halo rounds (:mod:`repro.comm.exchange`), each
delivered whole: the world only keeps the registry of rounds that are open,
which is what its leak check, purge and the double-begin guard read.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.comm.errors import MailboxLeakError
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
        # ``label -> {"total_s", "count"}`` at exit; while ``tracemalloc``
        # traces, also the phase's largest ``high_water_bytes``.
        self.tracer = Tracer()
        self.phase_wall: dict[str, dict[str, float]] = {}
        #: ``[entry bytes, peak so far]`` of every open traced phase,
        #: innermost last (:meth:`_memory_enter`).
        self._memory_marks: list[list[int]] = []
        # Resilience: optional seeded FaultInjector (see
        # repro.resilience.injection); when set, world-level exchanges give
        # it the chance to corrupt payloads deterministically.
        self.fault_injector: Any = None
        # Bounded-retry budget of the halo-exchange protocol
        # (re-deliveries per logical message after the first attempt);
        # configured from RecoveryPolicy.comm_max_retries by the
        # simulation driver.
        self.comm_max_retries = 2
        # Optional per-rank timeline profiler (repro.obs.timeline); when
        # set, phase transitions and world-level sync points notify it so
        # it can advance simulated rank clocks and attribute comm waits.
        self.profiler: Any = None
        self.rng = np.random.default_rng(seed)
        self._phase_stack: list[str] = ["default"]
        #: Next sequence number of every ``(src, dst)`` channel.
        self._next_seq = np.zeros((self.size, self.size), dtype=np.int64)
        #: Halo rounds posted and not yet delivered (``HaloHandle``s of
        #: repro.comm.exchange), aborted ones included until a purge.
        self._open_rounds: list[Any] = []

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

        While :mod:`tracemalloc` is tracing, the record also keeps the
        phase's ``high_water_bytes``: the most traced memory any one run
        of the block held above what was live at its entry.  Each scope
        resets tracemalloc's peak at entry; an enclosing scope's peak
        survives its nested ones.
        """
        self._phase_stack.append(label)
        if self.profiler is not None:
            self.profiler.on_phase_begin(label)
        traced = tracemalloc.is_tracing()
        if traced:
            self._memory_enter()
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
            if traced:
                high = self._memory_exit()
                if high is not None:
                    wall["high_water_bytes"] = max(
                        wall.get("high_water_bytes", 0), high
                    )

    def _memory_enter(self) -> None:
        """Open a traced phase: fold the peak so far into the enclosing
        phase's, then reset tracemalloc's peak for this one."""
        current, peak = tracemalloc.get_traced_memory()
        if self._memory_marks:
            outer = self._memory_marks[-1]
            outer[1] = max(outer[1], peak)
        self._memory_marks.append([current, current])
        tracemalloc.reset_peak()

    def _memory_exit(self) -> int | None:
        """Close the innermost traced phase: its high-water above entry
        (None when tracing stopped inside it); the enclosing phase's
        peak takes this one's."""
        entry, seen = self._memory_marks.pop()
        if not tracemalloc.is_tracing():
            return None
        seen = max(seen, tracemalloc.get_traced_memory()[1])
        if self._memory_marks:
            outer = self._memory_marks[-1]
            outer[1] = max(outer[1], seen)
        return seen - entry

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

    @contextmanager
    def off_ledger(self) -> Iterator[None]:
        """Run the ``with`` block against throwaway sinks.

        Ops, traffic, metrics, the hub, the host tracer and its phase
        walls are fresh for the block, and the profiler and the fault
        injector are out of it; all come back at exit, exception or not.
        For work that rebuilds what an earlier run already charged (a
        restart's derived state): the run's record then reads as if the
        work had never been repeated, and no scheduled fault fires in it.
        """
        from repro.perf.opcounts import OpRecorder

        saved = (
            self.ops, self.traffic, self.metrics, self.hub, self.tracer,
            self.phase_wall, self.profiler, self.fault_injector,
        )
        self.ops, self.traffic = OpRecorder(), TrafficLog()
        self.metrics, self.hub = MetricsRegistry(), ObserverHub()
        self.tracer, self.phase_wall = Tracer(), {}
        self.profiler = self.fault_injector = None
        try:
            yield
        finally:
            (
                self.ops, self.traffic, self.metrics, self.hub, self.tracer,
                self.phase_wall, self.profiler, self.fault_injector,
            ) = saved

    # -- open halo rounds --------------------------------------------------

    def pending_messages(self) -> int:
        """Messages posted but not delivered, over every open halo round
        (0 at every synchronization point of a healthy run)."""
        return sum(r.pending for r in self._open_rounds)

    def purge_pending(self, reason: str = "") -> int:
        """Close every open halo round and reset channel sequence numbers.

        The escalation path calls this after a transport failure aborts
        a round: the simulated analogue of tearing down and
        re-establishing communicators after an MPI fault.  An aborted
        round can never be read by another one; the purge counts its
        undelivered messages under ``comm.purged`` (labeled with
        ``reason``), releases its pattern and returns that count.
        """
        purged = self.pending_messages()
        if purged:
            self.metrics.counter(
                "comm.purged", phase=self.phase, reason=reason
            ).inc(purged)
        self._open_rounds.clear()
        self._next_seq[:] = 0
        return purged

    def assert_no_pending(self, context: str = "") -> None:
        """Raise :class:`MailboxLeakError` when any message is pending.

        Called at barriers and usable by tests at end-of-phase: an
        undelivered message at a synchronization point means a halo
        round was begun and never finished — on real MPI, a hang or a
        late-delivery bug.
        """
        pending = [
            {"phase": r.phase, "count": r.pending}
            for r in self._open_rounds
            if r.pending
        ]
        if not pending:
            return
        where = f" at {context}" if context else ""
        detail = "; ".join(
            f"{p['count']} in a round posted in phase {p['phase']!r}"
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
        network message.

        While someone observes ``exchange``, every transmitted payload
        emits a per-message hub event (``kind="p2p"``) exactly like a
        halo round does, so hub-derived message counts agree
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

        Also asserts that no posted message is still undelivered — every
        rank reaching a barrier with messages in flight is a protocol bug.
        """
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
        top of it) — for a reduction whose arithmetic the caller does
        itself, such as the rank-ordered sum of
        :func:`~repro.linalg.parvector.global_dot`.
        """
        phase = self.phase
        self.traffic.record_collective(kind, self.size, nbytes, phase)
        self.hub.emit("exchange", kind=kind, nbytes=nbytes, phase=phase)
        if self.profiler is not None:
            self.profiler.on_collective(kind, nbytes)
