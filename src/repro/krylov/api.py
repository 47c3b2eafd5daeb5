"""Unified Krylov-solver API: result type, protocols, factory.

The solver-facing API redesign: every Krylov method returns the same
:class:`KrylovResult`, satisfies the :class:`KrylovSolver` protocol, and is
constructed through :func:`make_krylov_solver` from a
:class:`~repro.core.config.SolverConfig`-like object (duck-typed, so the
linear-algebra layer stays independent of the config layer).  Equation
systems dispatch on ``cfg.method`` instead of hardwiring GMRES, which is
how Nalu-Wind switches the continuity solve between hypre's PCG and the
one-reduce GMRES.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.linalg.parcsr import ParCSRMatrix
from repro.linalg.parvector import ParVector

#: Supported ``cfg.method`` values.
KRYLOV_METHODS = ("gmres", "cg", "pipelined_cg")


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


@runtime_checkable
class KrylovSolver(Protocol):
    """The uniform solver surface the factory guarantees."""

    def solve(
        self, b: ParVector, x0: ParVector | None = None
    ) -> KrylovResult: ...


def make_krylov_solver(
    A: ParCSRMatrix,
    precond: Preconditioner | None = None,
    cfg: object | None = None,
) -> KrylovSolver:
    """Build the configured Krylov solver for ``A``.

    Args:
        A: system operator.
        precond: preconditioner action (None = identity).
        cfg: any object carrying solver settings — typically a
            :class:`~repro.core.config.SolverConfig`.  Recognized
            attributes (all optional): ``method`` ("gmres" | "cg" |
            "pipelined_cg"), ``tol``, ``max_iters``, ``overlap``
            (split halo exchange in solver SpMVs), ``restart``,
            ``gs_variant``, ``record_history``.  Missing attributes
            fall back to the method's defaults.

    Returns:
        A :class:`KrylovSolver` whose ``solve`` returns
        :class:`KrylovResult`.
    """
    method = getattr(cfg, "method", "gmres")
    tol = getattr(cfg, "tol", 1e-6)
    max_iters = getattr(cfg, "max_iters", 200)
    record_history = getattr(cfg, "record_history", True)
    overlap = getattr(cfg, "overlap", False)
    if method == "gmres":
        from repro.krylov.gmres import GMRES

        return GMRES(
            A,
            preconditioner=precond,
            tol=tol,
            max_iters=max_iters,
            restart=getattr(cfg, "restart", 50),
            gs_variant=getattr(cfg, "gs_variant", "one_reduce"),
            record_history=record_history,
            overlap=overlap,
        )
    if method == "cg":
        from repro.krylov.cg import CG

        return CG(
            A,
            preconditioner=precond,
            tol=tol,
            max_iters=max_iters,
            record_history=record_history,
            overlap=overlap,
        )
    if method == "pipelined_cg":
        from repro.krylov.pipelined_cg import PipelinedCG

        return PipelinedCG(
            A,
            preconditioner=precond,
            tol=tol,
            max_iters=max_iters,
            record_history=record_history,
            overlap=overlap,
        )
    raise ValueError(
        f"unknown Krylov method {method!r}; options {list(KRYLOV_METHODS)}"
    )
