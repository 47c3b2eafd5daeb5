"""Recovery policy: the escalation ladder for failed solves.

Production exascale stacks treat solver failure as a recoverable event,
not a fatal one (PSCToolkit engineers its AMG-preconditioned Krylov
stack explicitly for algorithmic robustness at scale; ExaWind's wind-farm
runs cannot afford to discard hours of simulation over one bad solve).
The policy here escalates through progressively more expensive actions:

1. ``rebuild_precond`` — drop every cached setup product (assembly plan,
   preconditioner, AMG hierarchy) and rebuild from the current operator;
2. ``expand_krylov`` — retry with ``retry_scale``-times larger
   restart/iteration budgets;
3. ``fallback_method`` — switch to the alternate Krylov method through
   :func:`~repro.krylov.api.make_krylov_solver`;
4. ``rollback_restep`` (simulation level) — restore the in-memory
   field state, rewind the rotor, halve the timestep, and re-step;
5. ``checkpoint_restore`` (run level) — when even re-stepping fails,
   restore the newest good durable checkpoint from the retention ring
   and re-advance (see ``docs/checkpoint_restart.md``).

Each exhausted ladder raises a structured
:class:`~repro.resilience.guards.SolverFailure` for the next layer up;
exhausting the step retries surfaces it to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.serialize import Config

#: Solver-level ladder actions, in default escalation order.
LADDER_ACTIONS = ("rebuild_precond", "expand_krylov", "fallback_method")

#: All recovery actions, including the simulation-level ones.
RECOVERY_ACTIONS = LADDER_ACTIONS + ("rollback_restep", "checkpoint_restore")


@dataclass
class RecoveryPolicy(Config):
    """Configurable solver-failure handling (``SimulationConfig.recovery``).

    Attributes:
        enabled: master switch for the recovery escalation.  Off, guard
            failures raise :class:`~repro.resilience.guards.SolverFailure`
            immediately (no retries) and non-convergence keeps the legacy
            record-and-continue behavior.
        guards: NaN/Inf validation of iterates (``EquationSystem.solve``)
            and fields (``Simulation._step_body``).  Off restores the
            pre-resilience behavior entirely.
        recover_non_convergence: treat a converged=False solve as a
            failure and run the ladder (nominal workloads always
            converge, so this only fires on genuine trouble).
        ladder: solver-level escalation order (subset/permutation of
            :data:`LADDER_ACTIONS`).
        retry_scale: ``restart``/``max_iters`` multiplier of the
            ``expand_krylov`` attempt.
        rollback: allow checkpoint-rollback + timestep backoff at the
            simulation level once the solver-level ladder is exhausted.
        dt_backoff: timestep multiplier per rollback (0 < x < 1).
        max_step_retries: rollback re-steps allowed per time step before
            the failure is surfaced to the caller.
        comm_max_retries: re-deliveries the halo-exchange protocol
            attempts per logical message (after the first try) before a
            transport failure escalates into the ladder.
        max_checkpoint_restores: restores from the durable checkpoint
            ring allowed per run once in-memory rollback is exhausted
            (0 disables the final rung).
    """

    enabled: bool = True
    guards: bool = True
    recover_non_convergence: bool = True
    ladder: tuple[str, ...] = field(
        default=LADDER_ACTIONS, metadata={"choices": LADDER_ACTIONS}
    )
    retry_scale: float = field(default=2.0, metadata={"ge": 1.0})
    rollback: bool = True
    dt_backoff: float = field(default=0.5, metadata={"gt": 0.0, "lt": 1.0})
    max_step_retries: int = field(default=2, metadata={"ge": 0})
    comm_max_retries: int = field(default=2, metadata={"ge": 0})
    max_checkpoint_restores: int = field(default=1, metadata={"ge": 0})


@dataclass
class RecoveryEvent:
    """One recovery attempt (solver ladder rung or rollback).

    Attributes:
        equation: equation whose solve failed ("fields" for field-guard
            failures).
        kind: failure kind that triggered the attempt.
        action: recovery action taken (:data:`RECOVERY_ACTIONS`).
        attempt: 1-based attempt index within the escalation.
        success: whether the action produced a healthy result.
        detail: free-form diagnostic (exception text of a crashed
            attempt, the backed-off dt of a rollback, ...).
    """

    equation: str
    kind: str
    action: str
    attempt: int
    success: bool
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "equation": self.equation,
            "kind": self.kind,
            "action": self.action,
            "attempt": self.attempt,
            "success": self.success,
            "detail": self.detail,
        }


def record_failure(world: Any, failure: Any) -> None:
    """Count one solver failure and announce it.

    With :func:`record_recovery`, the only place the ``resilience.*``
    counters move and the matching hub events are emitted, so a counter
    cannot drift from the event stream :func:`summarize_events` folds.
    """
    world.metrics.counter(
        "resilience.failures", equation=failure.equation, kind=failure.kind
    ).inc()
    world.hub.emit(
        "solver_failure",
        equation=failure.equation,
        kind=failure.kind,
        failure=failure,
    )


def record_recovery(world: Any, event: RecoveryEvent) -> None:
    """Announce one recovery attempt; a successful one is also counted
    (``resilience.recoveries`` mirrors :func:`summarize_events`)."""
    if event.success:
        world.metrics.counter(
            "resilience.recoveries",
            action=event.action,
            equation=event.equation,
        ).inc()
    world.hub.emit("recovery", **event.to_dict())


def summarize_events(events: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold a run's raw failure/recovery event list into a summary.

    Returns ``{"failures", "recoveries", "events"}`` where
    ``recoveries`` counts successful actions by name; a clean run has the
    same keys with zero / empty values.
    """
    failures = sum(1 for e in events if e.get("event") == "solver_failure")
    recoveries: dict[str, int] = {}
    for e in events:
        if e.get("event") == "recovery" and e.get("success"):
            action = str(e.get("action", ""))
            recoveries[action] = recoveries.get(action, 0) + 1
    return {
        "failures": failures,
        "recoveries": recoveries,
        "events": list(events),
    }
