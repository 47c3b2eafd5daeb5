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
4. ``rollback_restep`` (step level) — rewind to the step's in-memory
   state snapshot, halve the timestep, and re-step;
5. ``checkpoint_restore`` (run level) — when even re-stepping fails,
   rewind to the newest good durable checkpoint of the retention ring
   and re-advance (see ``docs/checkpoint_restart.md``).

Rungs 1-3 are the :data:`LADDER` table, walked by :func:`solve_with_recovery`
around one "solve attempt" callable; 4-5 belong to ``StepTransaction``.  An
exhausted ladder raises a :class:`~repro.resilience.guards.SolverFailure`
for the transaction; exhausting that surfaces it to the caller.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable

from repro.comm.errors import CommError
from repro.resilience.guards import (
    SolverFailure,
    classify_failure,
    iterate_is_finite,
)
from repro.serialize import Config


#: The solver-level ladder, in default escalation order.  A rung is a pure
#: ``(solver config, policy) -> (rebuild, solver config')``: whether the
#: retry first drops every cached set-up product, and the config it runs.
LADDER: dict[str, Callable[[Any, "RecoveryPolicy"], tuple[bool, Any]]] = {
    "rebuild_precond": lambda cfg, policy: (True, cfg),
    "expand_krylov": lambda cfg, policy: (
        False,
        replace(
            cfg,
            restart=max(1, int(cfg.restart * policy.retry_scale)),
            max_iters=max(1, int(cfg.max_iters * policy.retry_scale)),
        ),
    ),
    # Both CG flavors fall back to GMRES (the robust general method);
    # GMRES falls back to classical CG.
    "fallback_method": lambda cfg, policy: (
        False,
        replace(cfg, method="cg" if cfg.method == "gmres" else "gmres"),
    ),
}

#: Solver-level ladder actions (the allowed ``RecoveryPolicy.ladder`` values).
LADDER_ACTIONS = tuple(LADDER)

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
        guards: NaN/Inf validation of operands and iterates (the solver
            ladder) and of a step's fields (``StepTransaction``).  Off
            restores the pre-resilience behavior entirely.
        recover_non_convergence: treat a converged=False solve as a
            failure and run the ladder (nominal workloads always
            converge, so this only fires on genuine trouble).
        ladder: solver-level escalation order (subset/permutation of
            :data:`LADDER_ACTIONS`).
        retry_scale: ``restart``/``max_iters`` multiplier of the
            ``expand_krylov`` attempt.
        rollback: allow the step transaction's rewinds (snapshot +
            timestep backoff, then the checkpoint ring) past the ladder.
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
    world.hub.emit("recovery", **asdict(event))


def solve_health(
    result: Any, policy: RecoveryPolicy, *, retry: bool = False
) -> str | None:
    """Failure kind of a solve result, None when healthy: the one check
    of the first attempt and of every rung.  A ``retry`` is scanned for
    NaN/Inf even with ``guards`` off — never "recovered" to a NaN iterate."""
    if (policy.guards or retry) and not iterate_is_finite(result):
        return "nonfinite_iterate"
    if (
        policy.enabled
        and policy.recover_non_convergence
        and not result.converged
    ):
        return "non_convergence"
    return None


def _solve_failure(
    equation: str, kind: str, result: Any, attempts: tuple[str, ...] = ()
) -> SolverFailure:
    """Structured failure carrying the solve's diagnostic context
    (``result`` None: no attempt got as far as producing one)."""
    residual, iterations, history = (
        (float("inf"), 0, [])
        if result is None
        else (result.residual_norm, result.iterations, result.residual_history)
    )
    return SolverFailure(
        f"{equation} solve failed ({kind}): residual {residual:.3e} after "
        f"{iterations} iterations"
        + (f"; tried {list(attempts)}" if attempts else ""),
        equation=equation,
        kind=kind,
        phase=f"{equation}/solve",
        residual_norm=residual,
        iterations=iterations,
        residual_history=history,
        attempts=attempts,
    )


def solve_with_recovery(
    world: Any,
    policy: RecoveryPolicy,
    equation: str,
    cfg: Any,
    attempt: Callable[[Any, bool], Any],
    operands_ok: Callable[[], bool],
) -> Any:
    """Run one linear solve through the guards and the escalation ladder.

    ``attempt(cfg, rebuild)`` is one preconditioner update + Krylov solve
    under solver config ``cfg`` (``rebuild``: drop every cached set-up
    product first); ``operands_ok()`` scans operator and right-hand side
    for NaN/Inf.  Returns the first healthy result, recording every failure
    and every rung.  Raises :class:`SolverFailure` on corrupted operands
    (before set-up: a hierarchy built from a NaN operator is garbage and
    no retry helps — only the step transaction's rewind re-assembles
    them), with recovery disabled, or with ``policy.ladder`` exhausted.
    """
    if policy.guards and not operands_ok():
        failure = SolverFailure(
            f"{equation} operands are non-finite before solve",
            equation=equation,
            kind="nonfinite_operands",
            phase=f"{equation}/solve",
        )
        record_failure(world, failure)
        raise failure
    # Transport failures (halo messages that exhausted the comm retry
    # budget) escalate into the same ladder: the rungs re-drive the
    # exchanges, and one-shot injected faults will not re-fire.
    try:
        result = attempt(cfg, False)
        kind = solve_health(result, policy)
    except CommError as exc:
        kind = classify_failure(exc)
        # The aborted exchange left its round's remaining messages in
        # flight; purge them so the rungs reach clean channels.
        world.purge_pending(reason=kind)
        result = None
    if kind is None:
        return result
    failure = _solve_failure(equation, kind, result)
    record_failure(world, failure)
    if not policy.enabled:
        raise failure
    if not operands_ok():
        raise _solve_failure(equation, "nonfinite_operands", result)
    tried: list[str] = []
    with world.phase_scope(f"{equation}/recovery"):
        for n, action in enumerate(policy.ladder, start=1):
            tried.append(action)
            rebuild, rung_cfg = LADDER[action](cfg, policy)
            try:
                candidate = attempt(rung_cfg, rebuild)
                ok = solve_health(candidate, policy, retry=True) is None
                detail = "" if ok else (
                    f"residual {candidate.residual_norm:.3e}, "
                    f"converged={candidate.converged}"
                )
            except Exception as exc:  # noqa: BLE001 - recorded, escalated
                ok = False
                detail = f"{type(exc).__name__}: {exc}"
            record_recovery(
                world, RecoveryEvent(equation, kind, action, n, ok, detail)
            )
            if ok:
                return candidate
    raise _solve_failure(equation, kind, result, attempts=tuple(tried))


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
