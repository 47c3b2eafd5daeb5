"""Preconditioned conjugate gradients.

The pressure-Poisson operator is symmetric positive (semi-)definite, so CG
is the classical alternative to GMRES for it (Nalu-Wind historically ran
hypre's PCG on the continuity system before the one-reduce GMRES work).
Provided for completeness and for the solver-comparison ablations; each
iteration costs two reductions against one for the one-reduce GMRES:
``p.Ap`` and a batched allreduce of 2 scalars carrying ``r.z`` and the
``‖r‖²`` convergence check together (they are available at the same
point of the iteration, so fusing them is free — paying a third
reduction for the norm alone would be a hidden synchronization).
"""

from __future__ import annotations

import numpy as np

from repro.krylov.api import KrylovResult, Preconditioner, reduction_contract
from repro.linalg.parcsr import ParCSRMatrix
from repro.linalg.parvector import ParVector, fused_dots


class CG:
    """Preconditioned conjugate gradients for SPD operators.

    Args:
        A: SPD operator.
        preconditioner: SPD preconditioner action (None = identity).
        tol: relative residual tolerance.
        max_iters: iteration cap.
        record_history: keep per-iteration relative residual norms in
            ``KrylovResult.residual_history`` (off leaves it empty).
        overlap: run the SpMV halo exchanges split (``matvec(overlap=
            True)``): the diag block is applied while boundary data is
            in flight.  Bitwise-identical results, shorter halo waits.
    """

    def __init__(
        self,
        A: ParCSRMatrix,
        preconditioner: Preconditioner | None = None,
        tol: float = 1e-6,
        max_iters: int = 500,
        record_history: bool = True,
        overlap: bool = False,
    ) -> None:
        self.A = A
        self.M = preconditioner
        self.tol = tol
        self.max_iters = max_iters
        self.record_history = record_history
        self.overlap = overlap

    def _precond(self, r: ParVector) -> ParVector:
        return r.copy() if self.M is None else self.M.apply(r)

    # Fused-dot CG: initial ``b.norm`` + first fused (r·z, r·r) at setup,
    # then one ``p·Ap`` and one fused (r·z, r·r) per iteration — the
    # measured pin in tests/test_comm_avoiding.py is 2 + 2·iterations.
    @reduction_contract(setup=2, per_iteration=2)
    def solve(self, b: ParVector, x0: ParVector | None = None) -> KrylovResult:
        """Solve ``A x = b``."""
        A = self.A
        x = b.like(np.zeros(b.n)) if x0 is None else x0.copy()
        bnorm = b.norm()
        if bnorm == 0.0:
            return KrylovResult(
                x=b.like(np.zeros(b.n)),
                iterations=0,
                residual_norm=0.0,
                converged=True,
                residual_history=[0.0] if self.record_history else [],
                method="cg",
            )
        target = self.tol * bnorm

        r = A.residual(b, x)
        z = self._precond(r)
        p = z.copy()
        rz, rr = fused_dots(r.world, [(r, z), (r, r)])
        rnorm = float(np.sqrt(max(rr, 0.0)))
        history = [rnorm / bnorm] if self.record_history else []
        it = 0
        while rnorm > target and it < self.max_iters:
            Ap = A.matvec(p, overlap=self.overlap)
            pAp = p.dot(Ap)
            if not np.isfinite(pAp) or pAp <= 0.0:
                # Lost positive definiteness (semi-definite mode) or a
                # poisoned operand; NaN compares False against 0, so the
                # finiteness check must be explicit.
                break
            alpha = rz / pAp
            x.axpy(alpha, p)
            r.axpy(-alpha, Ap)
            z = self._precond(r)
            # One batched reduction for both the recurrence scalar and
            # the convergence check (2 scalars on the wire).
            rz_new, rr = fused_dots(r.world, [(r, z), (r, r)])
            beta = rz_new / rz
            p = z.copy().axpy(beta, p)
            rz = rz_new
            rnorm = float(np.sqrt(max(rr, 0.0)))
            if self.record_history:
                history.append(rnorm / bnorm)
            it += 1
        return KrylovResult(
            x=x,
            iterations=it,
            residual_norm=rnorm,
            converged=rnorm <= target,
            residual_history=history,
            method="cg",
        )
