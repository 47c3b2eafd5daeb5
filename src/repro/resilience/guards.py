"""Failure guards: NaN/Inf validation and the structured failure type.

An implicit incompressible-flow solve that silently marches on with a
garbage iterate is worse than one that stops: a single NaN injected by a
flaky exchange or a Givens breakdown contaminates every downstream field
within one Picard sweep.  These guards turn corruption into a
first-class, recoverable event — :class:`SolverFailure` carries the
equation name, failure kind, residual record, and phase context so the
recovery machinery (and the run report) can act on *what* failed, not
just that something did.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

#: Failure kinds raised by the guards / classifier.  The ``worker_*`` /
#: ``job_timeout`` entries are process-level kinds assigned by the
#: campaign supervisor (a worker died, stalled past its heartbeat, or
#: overran its wall-clock budget) — same taxonomy, one layer up.
FAILURE_KINDS = (
    "nonfinite_iterate",
    "nonfinite_operands",
    "nonfinite_fields",
    "non_convergence",
    "comm_retries_exhausted",
    "io_error",
    "worker_crash",
    "worker_hang",
    "job_timeout",
)

#: The transient subset: failures whose cause is environmental (lost
#: messages, flaky filesystems, dead or hung worker processes), so an
#: identical retry can legitimately succeed.  Deterministic failures —
#: solver divergence, non-finite iterates from a reproducible fault —
#: are excluded: re-running them replays the exact same failure, so the
#: campaign supervisor quarantines instead of retrying.
TRANSIENT_FAILURE_KINDS = frozenset(
    {
        "comm_retries_exhausted",
        "io_error",
        "worker_crash",
        "worker_hang",
        "job_timeout",
    }
)


class SolverFailure(RuntimeError):
    """A solver (or field-state) failure with full diagnostic context.

    Attributes:
        equation: equation system name (``"momentum"``, ``"pressure"``,
            ...) or the offending field name for field-guard failures.
        kind: one of :data:`FAILURE_KINDS`.
        phase: phase label active when the failure was detected
            (``"pressure/solve"``, ``"step"``...).
        residual_norm: last residual norm of the failing solve (NaN when
            not applicable).
        iterations: iterations spent by the failing solve.
        residual_history: per-iteration relative residual norms of the
            failing solve (empty when history was off).
        attempts: recovery actions that were tried (and failed) before
            this failure was surfaced.
    """

    def __init__(
        self,
        message: str,
        *,
        equation: str = "",
        kind: str = "",
        phase: str = "",
        residual_norm: float = float("nan"),
        iterations: int = 0,
        residual_history: Sequence[float] = (),
        attempts: Sequence[str] = (),
    ) -> None:
        super().__init__(message)
        self.equation = equation
        self.kind = kind
        self.phase = phase
        self.residual_norm = float(residual_norm)
        self.iterations = int(iterations)
        self.residual_history = list(residual_history)
        self.attempts = tuple(attempts)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation for reports and telemetry."""
        return {
            "message": str(self),
            "equation": self.equation,
            "kind": self.kind,
            "phase": self.phase,
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "residual_history": list(self.residual_history),
            "attempts": list(self.attempts),
        }


def iterate_is_finite(result: Any) -> bool:
    """True when a Krylov result's solution and residual are all finite."""
    return bool(
        np.all(np.isfinite(result.x.data))
        and np.isfinite(result.residual_norm)
    )


def validate_iterate(
    result: Any, *, equation: str = "", phase: str = "solve"
) -> None:
    """Raise :class:`SolverFailure` when a Krylov result carries NaN/Inf.

    Args:
        result: a :class:`~repro.krylov.api.KrylovResult` (duck-typed).
        equation: equation name for the failure context.
        phase: phase label for the failure context.
    """
    if iterate_is_finite(result):
        return
    n_bad = int(np.size(result.x.data) - np.isfinite(result.x.data).sum())
    raise SolverFailure(
        f"{equation or 'solver'} iterate is non-finite "
        f"({n_bad} bad entries, residual {result.residual_norm})",
        equation=equation,
        kind="nonfinite_iterate",
        phase=phase,
        residual_norm=result.residual_norm,
        iterations=result.iterations,
        residual_history=list(result.residual_history),
    )


def validate_fields(
    fields: Mapping[str, np.ndarray], *, phase: str = "step"
) -> None:
    """Raise :class:`SolverFailure` on the first NaN/Inf field entry.

    Args:
        fields: ``name -> array`` of solution fields to check.
        phase: phase label for the failure context.
    """
    for name, arr in fields.items():
        finite = np.isfinite(arr)
        if not finite.all():
            n_bad = int(arr.size - finite.sum())
            raise SolverFailure(
                f"field {name!r} has {n_bad}/{arr.size} non-finite entries",
                equation=name,
                kind="nonfinite_fields",
                phase=phase,
            )


def classify_failure(exc: BaseException) -> str:
    """Map an exception to its :data:`FAILURE_KINDS` entry.

    Structured failures carry their own ``kind``; transport errors from
    :mod:`repro.comm.errors` map onto ``comm_retries_exhausted`` and
    ``OSError`` onto ``io_error``, so the recovery ladder and the run
    report route on the same taxonomy regardless of which layer raised.
    """
    from repro.comm.errors import CommError

    if isinstance(exc, SolverFailure) and exc.kind:
        return exc.kind
    if isinstance(exc, CommError):
        return "comm_retries_exhausted"
    if isinstance(exc, OSError):
        return "io_error"
    return "non_convergence"


def operands_are_finite(A: Any, b: Any) -> bool:
    """True when a solve's operator values and RHS are all finite.

    Corrupted operands cannot be fixed by solver-level retries (a rebuilt
    preconditioner of a NaN matrix is still garbage), so the recovery
    ladder short-circuits straight to rollback when this is False.
    """
    return bool(
        np.all(np.isfinite(b.data)) and np.all(np.isfinite(A.A.data))
    )
