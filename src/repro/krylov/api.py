"""Unified Krylov-solver API: result type, protocols, reduction contract.

Every Krylov method returns the same :class:`KrylovResult` and satisfies
the :class:`KrylovSolver` protocol; :func:`repro.krylov.make_krylov_solver`
builds one from its ``cfg.method``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.linalg.parvector import ParVector

def reduction_contract(
    *, setup: int, per_iteration: int, per_restart: int = 0
):
    """Declare how many allreduces a run of the kernel executes.

    The comm-avoiding literature treats the allreduce count per Krylov
    iteration as the algorithm's *contract* — it is what Fig. 8/9-style
    scaling regimes are computed from, and PR 8's hidden third CG
    reduction showed the implementation can silently drift from it.
    This decorator states the contract on the source, as the closed form
    ``setup + per_restart * cycles + per_iteration * passes`` of a
    non-degenerate run:

    * ``setup`` — reductions paid once per call (initial norms,
      first-step dot products, the residual norm a restarted method
      returns);
    * ``per_iteration`` — reductions per pass of the iteration loop;
    * ``per_restart`` — for restarted GMRES, reductions per restart
      cycle (the residual norm entering it).

    The measured-count tests of ``tests/test_comm_avoiding.py`` are the
    only verifier: they reconcile each declaration with
    ``TrafficLog.collective_count()`` of a convergent solve, pin the
    count of every early exit and degenerate branch of every decorated
    kernel, and refuse a decorated kernel that has no such pin.
    The function is returned unwrapped — the contract is metadata on
    ``__reduction_contract__``, never a runtime cost.
    """

    def attach(fn):
        fn.__reduction_contract__ = {
            "setup": setup,
            "per_iteration": per_iteration,
            "per_restart": per_restart,
        }
        return fn

    return attach


@runtime_checkable
class Preconditioner(Protocol):
    """Anything with an ``apply(r) -> z`` action."""

    def apply(self, r: ParVector) -> ParVector: ...


@dataclass
class KrylovResult:
    """Outcome of one Krylov solve (any method).

    ``method`` names the algorithm that produced the result ("gmres",
    "cg", "pipelined_cg"); the remaining fields are method-independent.
    """

    x: ParVector
    iterations: int
    residual_norm: float
    converged: bool
    residual_history: list[float] = field(default_factory=list)
    method: str = ""


def zero_rhs_result(b: ParVector, method: str) -> KrylovResult:
    """``method``'s answer to ``b = 0``: ``x = 0``, converged at once."""
    return KrylovResult(
        x=b.like(np.zeros(b.n)),
        iterations=0,
        residual_norm=0.0,
        converged=True,
        residual_history=[0.0],
        method=method,
    )


@runtime_checkable
class KrylovSolver(Protocol):
    """The uniform solver surface the factory guarantees."""

    def solve(
        self, b: ParVector, x0: ParVector | None = None
    ) -> KrylovResult: ...
