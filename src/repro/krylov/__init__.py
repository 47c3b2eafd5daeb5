"""Krylov solvers: right-preconditioned GMRES, CG, pipelined CG,
low-sync Gram-Schmidt.

The unified entry point is :func:`make_krylov_solver`; every solver
returns a :class:`KrylovResult`.  (The PR 2-era ``GMRESResult`` /
``CGResult`` aliases have been removed.)
"""

from repro.krylov.api import KrylovResult, KrylovSolver, Preconditioner
from repro.krylov.cg import CG
from repro.krylov.gmres import GMRES
from repro.krylov.gram_schmidt import VARIANTS as GS_VARIANTS
from repro.krylov.gram_schmidt import batched_dots, orthogonalize
from repro.krylov.pipelined_cg import PipelinedCG
from repro.linalg.parcsr import ParCSRMatrix

#: ``cfg.method`` -> solver class.
SOLVERS = {"gmres": GMRES, "cg": CG, "pipelined_cg": PipelinedCG}
#: Supported ``cfg.method`` values.
KRYLOV_METHODS = tuple(SOLVERS)


def make_krylov_solver(
    A: ParCSRMatrix,
    precond: Preconditioner | None,
    cfg: object,
) -> KrylovSolver:
    """Build the configured Krylov solver for ``A``.

    Args:
        A: system operator.
        precond: preconditioner action (None = identity).
        cfg: any object carrying the solver settings — typically a
            :class:`~repro.core.config.SolverConfig`: ``method`` (a
            :data:`KRYLOV_METHODS` name), ``tol``, ``max_iters``,
            ``overlap`` (split halo exchange in solver SpMVs) and, read
            for GMRES only, ``restart`` and ``gs_variant``.

    Returns:
        A :class:`KrylovSolver` whose ``solve`` returns
        :class:`KrylovResult`.
    """
    try:
        cls = SOLVERS[cfg.method]
    except KeyError:
        raise ValueError(
            f"unknown Krylov method {cfg.method!r}; options "
            f"{list(KRYLOV_METHODS)}"
        ) from None
    gmres_only = (
        {"restart": cfg.restart, "gs_variant": cfg.gs_variant}
        if cls is GMRES
        else {}
    )
    return cls(
        A,
        preconditioner=precond,
        tol=cfg.tol,
        max_iters=cfg.max_iters,
        overlap=cfg.overlap,
        **gmres_only,
    )


__all__ = [
    "CG",
    "GMRES",
    "GS_VARIANTS",
    "KRYLOV_METHODS",
    "KrylovResult",
    "KrylovSolver",
    "PipelinedCG",
    "Preconditioner",
    "batched_dots",
    "make_krylov_solver",
    "orthogonalize",
]
