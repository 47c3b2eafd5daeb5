"""Pipelined preconditioned conjugate gradients (Ghysels–Vanroose).

The communication-avoiding CG variant of Ghysels & Vanroose (*Hiding
global synchronization latency in the preconditioned Conjugate Gradient
algorithm*, Parallel Computing 40, 2014), the pressure-Poisson analogue
of the one-reduce GMRES: where classical PCG pays two synchronizations
per iteration (``p.Ap``, then ``r.z`` + the norm check), the pipelined
recurrence rearranges the algorithm so **all three scalars of an
iteration — γ = (r, u), δ = (w, u), and ‖r‖² — travel in a single
batched allreduce**, and that one reduction is posted *before* the
iteration's preconditioner application and SpMV, so on a real machine
it hides behind them (MPI_Iallreduce; the simulator charges the fused
collective once per iteration).

Per-iteration recurrence (u = M⁻¹r, w = Au maintained alongside r):

.. code-block:: text

    γ_i = (r_i, u_i);  δ_i = (w_i, u_i);  ‖r_i‖²      [one allreduce]
    m_i = M⁻¹ w_i;  n_i = A m_i                        [overlaps it]
    β_i = γ_i / γ_{i-1}              (0 at i = 0)
    α_i = γ_i / (δ_i - β_i γ_i / α_{i-1})   (γ_0/δ_0 at i = 0)
    z ← n + β z;  q ← m + β q;  s ← w + β s;  p ← u + β p
    x ← x + α p;  r ← r - α s;  u ← u - α q;  w ← w - α z

The residual used for convergence is the recurrence residual (its norm
rides the fused reduction); like all pipelined methods it can drift
from the true residual in late iterations, which is why the contract is
"converges to the same tolerance as CG", not bitwise iterate equality.
"""

from __future__ import annotations

import numpy as np

from repro.krylov.api import KrylovResult, Preconditioner, reduction_contract
from repro.linalg.parcsr import ParCSRMatrix
from repro.linalg.parvector import ParVector, fused_dots


class PipelinedCG:
    """Ghysels–Vanroose pipelined PCG: one allreduce per iteration.

    Args:
        A: SPD operator.
        preconditioner: SPD preconditioner action (None = identity).
        tol: relative residual tolerance.
        max_iters: iteration cap.
        record_history: keep per-iteration relative residual norms.
        overlap: run the SpMV halo exchanges split
            (``matvec(overlap=True)``) so interior compute also hides
            the point-to-point waits — the full communication-avoiding
            configuration.
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

    # One fused reduction per iteration is the whole point of the
    # pipelined variant: ``b.norm`` at setup, a single fused
    # (r·z, w·z, r·r) per loop pass — measured as 2 + iterations because
    # the loop body runs iterations + 1 times.
    @reduction_contract(setup=1, per_iteration=1)
    def solve(self, b: ParVector, x0: ParVector | None = None) -> KrylovResult:
        """Solve ``A x = b``."""
        A = self.A
        world = b.world
        x = b.like(np.zeros(b.n)) if x0 is None else x0.copy()
        bnorm = b.norm()
        if bnorm == 0.0:
            return KrylovResult(
                x=b.like(np.zeros(b.n)),
                iterations=0,
                residual_norm=0.0,
                converged=True,
                residual_history=[0.0] if self.record_history else [],
                method="pipelined_cg",
            )
        target = self.tol * bnorm

        r = A.residual(b, x, overlap=self.overlap)
        u = self._precond(r)
        w = A.matvec(u, overlap=self.overlap)
        z = q = s = p = None
        gamma_old = alpha_old = 0.0
        rnorm = float("inf")
        history: list[float] = []
        it = 0
        while it < self.max_iters:
            # The single synchronization of the iteration: γ, δ, and the
            # convergence norm fused into one 3-scalar allreduce, posted
            # here and (on the modeled machine) hidden behind the
            # preconditioner + SpMV below.
            gamma, delta, rr = fused_dots(world, [(r, u), (w, u), (r, r)])
            rnorm = float(np.sqrt(max(rr, 0.0)))
            if self.record_history:
                history.append(rnorm / bnorm)
            if not np.isfinite(rnorm) or rnorm <= target:
                break
            # Overlapped leg: m = M⁻¹w and n = Am proceed while the
            # reduction is in flight.
            m = self._precond(w)
            n = A.matvec(m, overlap=self.overlap)
            if it == 0:
                beta = 0.0
                denom = delta
            else:
                beta = gamma / gamma_old
                denom = delta - beta * gamma / alpha_old
            if not np.isfinite(denom) or denom <= 0.0:
                # Lost positive definiteness or a poisoned operand —
                # same guard as classical CG's p.Ap check (for SPD A and
                # M the denominator equals p.Ap in exact arithmetic).
                break
            alpha = gamma / denom
            if z is None:
                z, q, s, p = n, m, w.copy(), u.copy()
            else:
                z = n.axpy(beta, z)
                q = m.axpy(beta, q)
                s = w.copy().axpy(beta, s)
                p = u.copy().axpy(beta, p)
            x.axpy(alpha, p)
            r.axpy(-alpha, s)
            u.axpy(-alpha, q)
            w.axpy(-alpha, z)
            gamma_old, alpha_old = gamma, alpha
            it += 1
        return KrylovResult(
            x=x,
            iterations=it,
            residual_norm=rnorm,
            converged=bool(np.isfinite(rnorm) and rnorm <= target),
            residual_history=history,
            method="pipelined_cg",
        )
