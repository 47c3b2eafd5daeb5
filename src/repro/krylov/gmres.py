"""Right-preconditioned GMRES with low-synchronization Gram-Schmidt.

The solver for both the momentum/scalar systems (SGS2-preconditioned) and
the pressure-Poisson system (AMG-preconditioned) in the paper.  Right
preconditioning keeps the true residual observable without extra solves,
and the Gram-Schmidt variant controls the reduction count per iteration
(:mod:`repro.krylov.gram_schmidt`).
"""

from __future__ import annotations

import numpy as np

from repro.krylov.api import KrylovResult, Preconditioner, reduction_contract
from repro.krylov.gram_schmidt import orthogonalize
from repro.linalg.parcsr import ParCSRMatrix
from repro.linalg.parvector import ParVector


class GMRES:
    """Restarted, right-preconditioned GMRES.

    Args:
        A: system operator.
        preconditioner: right preconditioner ``M^-1`` (None = identity).
        tol: relative residual tolerance ``||b - Ax|| <= tol * ||b||``.
        max_iters: total iteration cap.
        restart: Arnoldi basis size before restart.
        gs_variant: ``"mgs"``, ``"cgs2"`` or ``"one_reduce"``.
        record_history: keep per-iteration relative residual norms in
            ``KrylovResult.residual_history``.  Off leaves the history
            empty and skips the per-iteration appends (hot-path cost is
            then limited to the convergence test itself).
        overlap: run the SpMV halo exchanges split (``matvec(overlap=
            True)``): the diag block is applied while boundary data is
            in flight.  Bitwise-identical results, shorter halo waits.
    """

    def __init__(
        self,
        A: ParCSRMatrix,
        preconditioner: Preconditioner | None = None,
        tol: float = 1e-6,
        max_iters: int = 200,
        restart: int = 50,
        gs_variant: str = "one_reduce",
        record_history: bool = True,
        overlap: bool = False,
    ) -> None:
        self.A = A
        self.M = preconditioner
        self.tol = tol
        self.max_iters = max_iters
        self.restart = restart
        self.gs_variant = gs_variant
        self.record_history = record_history
        self.overlap = overlap

    def _precond(self, v: ParVector) -> ParVector:
        if self.M is None:
            return v.copy()
        return self.M.apply(v)

    # Restarted GMRES: ``b.norm`` and the residual norm the solve
    # returns; per restart cycle the residual norm entering it; per
    # inner (Arnoldi) iteration one orthogonalize — whose own count
    # (j+1 / 3 / 1 by variant, one more when one-reduce falls back on a
    # cancelled norm estimate) is gram_schmidt's, declared here at the
    # one-reduce budget the solver defaults to.
    @reduction_contract(setup=2, per_iteration=1, per_restart=1)
    def solve(self, b: ParVector, x0: ParVector | None = None) -> KrylovResult:
        """Solve ``A x = b``.

        Returns:
            :class:`~repro.krylov.api.KrylovResult` with the solution and
            convergence record.
        """
        A = self.A
        world = A.world
        n = b.n
        x = b.like(np.zeros(n)) if x0 is None else x0.copy()

        bnorm = b.norm()
        if bnorm == 0.0:
            return KrylovResult(
                x=b.like(np.zeros(n)),
                iterations=0,
                residual_norm=0.0,
                converged=True,
                residual_history=[0.0] if self.record_history else [],
                method="gmres",
            )
        target = self.tol * bnorm

        history: list[float] = []
        total_iters = 0
        while True:
            r = A.residual(b, x, overlap=self.overlap)
            beta = r.norm()
            if self.record_history:
                history.append(beta / bnorm)
            # A non-finite residual cannot improve from here (every inner
            # product downstream is poisoned); return it for the guards
            # to classify instead of spinning NaN arithmetic to max_iters.
            if (
                beta <= target
                or total_iters >= self.max_iters
                or not np.isfinite(beta)
            ):
                return KrylovResult(
                    x=x,
                    iterations=total_iters,
                    residual_norm=beta,
                    converged=beta <= target,
                    residual_history=history,
                    method="gmres",
                )

            m = min(self.restart, self.max_iters - total_iters)
            # Krylov basis + preconditioned directions are device-resident
            # for the duration of the cycle: 2(m+1) vectors per rank (part
            # of the footprint behind the paper's device-memory cliffs at
            # few ranks).  Freed when the cycle's update completes.
            basis_per_rank = 2.0 * (m + 1) * 8.0 * n / world.size
            world.charge_alloc(basis_per_rank)
            V = np.zeros((n, m + 1))
            Z: list[np.ndarray] = []
            H = np.zeros((m + 1, m))
            V[:, 0] = r.data / beta
            g = np.zeros(m + 1)
            g[0] = beta
            cs = np.zeros(m)
            sn = np.zeros(m)

            k = 0
            breakdown = False
            for j in range(m):
                z = self._precond(b.like(V[:, j].copy()))
                Z.append(z.data.copy())
                w = A.matvec(z, overlap=self.overlap)
                h, hj1 = orthogonalize(
                    world, V[:, : j + 1], w.data, self.gs_variant
                )
                H[: j + 1, j] = h
                H[j + 1, j] = hj1
                if hj1 > 1e-300:
                    V[:, j + 1] = w.data / hj1
                # Givens rotations on the new column.
                for i in range(j):
                    t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                    H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                    H[i, j] = t
                denom = np.hypot(H[j, j], H[j + 1, j])
                if denom == 0.0 or not np.isfinite(denom):
                    # Givens breakdown: the rotated column is zero (or
                    # poisoned), so H[j, j] stays 0 and including column j
                    # would divide by zero in the back-substitution below.
                    # Discard the degenerate column (k = j, not j + 1) and
                    # leave the cycle.
                    k = j
                    breakdown = True
                    break
                cs[j] = H[j, j] / denom
                sn[j] = H[j + 1, j] / denom
                H[j, j] = denom
                H[j + 1, j] = 0.0
                g[j + 1] = -sn[j] * g[j]
                g[j] = cs[j] * g[j]
                total_iters += 1
                k = j + 1
                if self.record_history:
                    history.append(abs(g[j + 1]) / bnorm)
                if abs(g[j + 1]) <= target:
                    break
                if hj1 <= 1e-300:
                    break

            # Solve the small triangular system and update x.
            if k > 0:
                y = np.zeros(k)
                for i in range(k - 1, -1, -1):
                    y[i] = (g[i] - H[i, i + 1 : k] @ y[i + 1 : k]) / H[i, i]
                dx = np.zeros(n)
                for i in range(k):
                    dx += y[i] * Z[i]
                x.data += dx
                # Record the solution-update GEMV.
                per_rank = n / world.size
                world.charge(
                    "gmres_update",
                    2.0 * k * per_rank,
                    8.0 * (k + 2) * per_rank,
                )
            world.charge_alloc(-basis_per_rank)
            # On breakdown the restarted cycle would rebuild the identical
            # degenerate Krylov space (the update above already used every
            # healthy column), so return the true residual instead of
            # looping forever.
            if breakdown or total_iters >= self.max_iters:
                r = A.residual(b, x)
                beta = r.norm()
                if self.record_history:
                    history.append(beta / bnorm)
                return KrylovResult(
                    x=x,
                    iterations=total_iters,
                    residual_norm=beta,
                    converged=beta <= target,
                    residual_history=history,
                    method="gmres",
                )
