"""The step transaction: snapshot -> body -> field guard -> rewind.

The driver *declares* its state and *offers* a step body; this module owns
every catch, retry, rewind and event above the solver ladder
(:func:`repro.resilience.policy.solve_with_recovery` owns those below).

State contract of the wrapped ``target`` (any object that owns the
transaction; it is held weakly):

* ``state() -> (arrays, meta)`` — everything a step may change: array
  *copies* plus a JSON-able dict with at least ``step_index``, cheap enough
  to take before every step; ``set_state(arrays, meta)`` applies such a
  pair (copying: a snapshot serves several retries) and drops whatever was
  derived from the old one.
* ``environment() -> dict`` / ``set_environment(env)`` — what a run
  accumulates *around* its state (RNG streams, fault schedule, telemetry).
  Only a durable write captures it and only a cold restart applies it: an
  in-run rewind leaves counters and fired faults where they are, which also
  keeps a deterministic injected fault from replaying forever.
* ``derived() -> (arrays, meta)`` / ``set_derived(arrays, meta)`` — which
  derived objects (graphs, plans, preconditioners) are live, and what
  rebuilding them takes.  A durable write stores it as the checkpoint's
  ``derived`` section; a rewind to a file (cold restart or ring) applies
  it after ``set_state``, and a file without the section rebuilds nothing.

``config`` supplies ``dt``, ``recovery`` (the ``RecoveryPolicy``) and the
ring's ``checkpoint_dir`` / ``checkpoint_keep`` / ``checkpoint_every``.
"""

from __future__ import annotations

import os
import weakref
from typing import Any, Callable, Mapping

import numpy as np

from repro.resilience.checkpoint import (
    DERIVED_SECTION,
    CheckpointError,
    CheckpointManager,
)
from repro.resilience.guards import SolverFailure, validate_fields
from repro.resilience.policy import (
    RecoveryEvent,
    record_failure,
    record_recovery,
    summarize_events,
)


class StepTransaction:
    """Failure handling of one stepping object.  ``events`` is the run's
    raw record, folded from the ``solver_failure`` / ``recovery`` hub
    events; ``restores`` counts ring rewinds against their budget."""

    def __init__(self, target: Any, world: Any, config: Any) -> None:
        # The target owns its transaction: a weak back-reference (and hub
        # observers that hold only the event list) leave no reference
        # cycle, so a dropped target is freed at once.
        self.target = weakref.proxy(target)
        self.world = world
        self.config = config
        self.events: list[dict[str, Any]] = []
        self.restores = 0
        events = self.events
        world.hub.subscribe(
            "solver_failure",
            lambda failure, **_kw: events.append(
                {"event": "solver_failure", **failure.to_dict()}
            ),
        )
        world.hub.subscribe(
            "recovery",
            lambda **kw: events.append({"event": "recovery", **kw}),
        )

    def _ring(self, directory: str | None = None) -> CheckpointManager:
        """Retention ring over ``directory`` (default: the run's own)."""
        return CheckpointManager(
            self.config.checkpoint_dir if directory is None else directory,
            keep=self.config.checkpoint_keep,
            injector=self.world.fault_injector,
            metrics=self.world.metrics,
        )

    def run(self, body: Callable[[], Mapping[str, np.ndarray]]) -> bool:
        """Run ``body`` to a committed step, or rewind.

        ``body()`` advances the target one step and returns the fields to
        scan for NaN/Inf.  A :class:`SolverFailure` from either rewinds to
        the snapshot taken on entry and re-runs the body at ``dt *
        dt_backoff`` (the nominal ``dt`` is back on return), up to
        ``max_step_retries`` times; then to the newest good ring entry, up
        to ``max_checkpoint_restores`` times per run.  True: committed.
        False: rewound to the ring (``step_index`` moved back; the caller's
        loop re-advances).  Budgets spent or rewinds off: it raises.
        """
        cfg = self.config
        policy = cfg.recovery
        rewindable = policy.enabled and policy.rollback
        snapshot = self.target.state() if rewindable else None
        dt0 = cfg.dt
        retries = 0
        try:
            while True:
                try:
                    fields = body()
                    if policy.guards:
                        self._guard(fields)
                    # An earlier failure has this frame on its traceback:
                    # unbound here, the two leave no reference cycle.
                    failure = None
                    return True
                except SolverFailure as exc:
                    failure = exc
                if snapshot is None or retries >= policy.max_step_retries:
                    break
                retries += 1
                new_dt = cfg.dt * policy.dt_backoff
                event = RecoveryEvent(
                    failure.equation, failure.kind, "rollback_restep",
                    retries, True, f"dt {cfg.dt:.4g} -> {new_dt:.4g}",
                )
                self._rewind(*snapshot, event)
                cfg.dt = new_dt
        finally:
            cfg.dt = dt0
        # Last rung, unless rewinds or checkpointing are off, the budget
        # is spent or nothing in the ring verifies: the failure surfaces.
        if (
            snapshot is None
            or self.restores >= policy.max_checkpoint_restores
            or not cfg.checkpoint_every
        ):
            raise failure
        try:
            arrays, meta, path = self._ring().load_latest_good()
        except CheckpointError:
            raise failure from None
        self.restores += 1
        event = RecoveryEvent(
            failure.equation, failure.kind, "checkpoint_restore",
            self.restores, True,
            f"step {snapshot[1]['step_index']} -> {meta['step_index']} "
            f"({os.path.basename(path)})",
        )
        self._rewind(arrays, meta, event, path=path)
        failure = None
        return False

    def _guard(self, fields: Mapping[str, np.ndarray]) -> None:
        """NaN/Inf check of the fields a step produced."""
        try:
            validate_fields(fields, phase="step")
        except SolverFailure as failure:
            record_failure(self.world, failure)
            raise

    def _rewind(
        self,
        arrays: dict[str, np.ndarray],
        meta: dict[str, Any],
        event: RecoveryEvent | None = None,
        path: str = "",
    ) -> None:
        """The one rewind: apply a state, count it, announce it — from
        memory (an ``event``, no ``path``), the ring (both) or a restart
        file (``path`` only: the cold start, which applies the environment
        too)."""
        world = self.world
        prefix = f"{DERIVED_SECTION}/"
        state = {k: v for k, v in arrays.items() if not k.startswith(prefix)}
        self.target.set_state(state, meta)
        if event is None:
            self.target.set_environment(meta)
        if path and DERIVED_SECTION in meta:
            self.target.set_derived(
                {
                    k[len(prefix):]: v
                    for k, v in arrays.items()
                    if k.startswith(prefix)
                },
                meta[DERIVED_SECTION],
            )
        source = "cold" if event is None else "recovery"
        if path:
            # After set_environment replaced the registry: this increment
            # is new activity of the restarted process, not restored state.
            world.metrics.counter(
                "resilience.checkpoint.restores", source=source
            ).inc()
        if event is not None:
            record_recovery(world, event)
        if path:
            world.hub.emit(
                "restart", step=meta["step_index"], path=path, source=source
            )

    def write_checkpoint(self) -> str:
        """Durably checkpoint state + environment; returns the file path."""
        world = self.world
        with world.tracer.span("checkpoint") as span:
            # Count the write *before* capturing the environment: the
            # restored counter then equals the uninterrupted run's at the
            # same step (counter parity is part of bitwise resume).
            world.metrics.counter("resilience.checkpoint.writes").inc()
            arrays, meta = self.target.state()
            meta.update(self.target.environment())
            derived, meta[DERIVED_SECTION] = self.target.derived()
            for name, arr in derived.items():
                arrays[f"{DERIVED_SECTION}/{name}"] = arr
            step = span.attrs["step"] = meta["step_index"]
            path = self._ring().save(step, arrays, meta)
        world.hub.emit("checkpoint", step=step, path=path)
        return path

    def restart(self, source: str) -> None:
        """Cold-start the target from a checkpoint file, or from the newest
        good entry of a ring directory."""
        with self.world.tracer.span("restart", source=source):
            if os.path.isdir(source):
                arrays, meta, path = self._ring(source).load_latest_good()
            else:
                arrays, meta = self._ring().load(source)
                path = source
            self._rewind(arrays, meta, path=path)

    def summary(self) -> dict[str, Any]:
        """The report's recovery summary: :func:`summarize_events` of
        ``events``, plus a ``checkpoint`` section (writes / restores /
        retry counts) when durable checkpointing was active."""
        summary = summarize_events(self.events)
        counts = {
            name: int(
                self.world.metrics.counter_total(
                    f"resilience.checkpoint.{name}"
                )
            )
            for name in (
                "writes", "restores", "write_retries", "corrupt_detected"
            )
        }
        if counts["writes"] or counts["restores"]:
            summary["checkpoint"] = counts
        return summary
