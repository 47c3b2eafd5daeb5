"""Chebyshev polynomial smoother.

The companion study to the paper's smoother work (Thomas et al. [40],
"Two-stage Gauss-Seidel preconditioners and smoothers for Krylov solvers on
a GPU cluster") evaluates polynomial smoothers alongside the two-stage GS
family: Chebyshev needs only SpMVs (no triangular solves, no neighborhood
rounds beyond the matvec halo), at the price of eigenvalue estimation in
setup.  Included for the smoother ablations.
"""

from __future__ import annotations

import numpy as np

from repro.krylov.api import reduction_contract
from repro.linalg.parcsr import ParCSRMatrix
from repro.linalg.parvector import ParVector
from repro.smoothers.base import BlockSplitting


def estimate_dinv_a_eigmax(
    A: ParCSRMatrix, iters: int = 10, seed: int = 7
) -> float:
    """Power-iteration estimate of ``lambda_max(D^-1 A)`` (setup cost)."""
    rng = np.random.default_rng(seed)
    dinv = 1.0 / A.diagonal()
    v = A.new_vector(rng.standard_normal(A.shape[0]))
    v.scale(1.0 / max(v.norm(), 1e-300))
    lam = 1.0
    for _ in range(iters):
        w = A.matvec(v)
        w.data *= dinv
        lam = max(w.norm(), 1e-300)
        v = w
        v.scale(1.0 / lam)
    # Safety factor, as hypre applies, so the polynomial bound holds.
    return 1.1 * lam


class ChebyshevSmoother:
    """Degree-``k`` Chebyshev smoother on the ``D^-1 A`` spectrum.

    The reduction-free AMG smoother for the comm-bound regime: an
    application is ``degree`` SpMVs plus diagonal scalings — no dot
    products, so no allreduces.

    Args:
        A: operator (SPD-like spectrum assumed).
        degree: polynomial degree (number of SpMVs per application).
        eig_ratio: ``lambda_min = eig_ratio * lambda_max`` — the smoother
            targets the upper ``[lambda_min, lambda_max]`` band, leaving
            smooth error to the coarse grid.
    """

    def __init__(
        self,
        A: ParCSRMatrix,
        degree: int = 3,
        eig_ratio: float = 0.30,
        eig_max: float | None = None,
    ) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.A = A
        self.degree = degree
        self.split = BlockSplitting(A)  # records setup pass + gives Dinv
        self.eig_max = (
            estimate_dinv_a_eigmax(A) if eig_max is None else eig_max
        )
        self.eig_min = eig_ratio * self.eig_max
        self.theta = 0.5 * (self.eig_max + self.eig_min)
        self.delta = 0.5 * (self.eig_max - self.eig_min)

    def apply(self, r: ParVector) -> ParVector:
        """Preconditioner action with zero initial guess: the first
        residual is ``r`` itself, no SpMV or halo round."""
        return self._iterate(r, r.like(np.zeros(r.n)), r.copy())

    # The smoother's selling point at scale (§4): zero reductions — the
    # eigenvalue estimate is paid once at construction, the polynomial
    # recurrence itself is all local axpys and halo'd residuals.
    @reduction_contract(setup=0, per_iteration=0)
    def smooth(self, b: ParVector, x: ParVector) -> ParVector:
        """Chebyshev iteration on ``D^-1 A x = D^-1 b`` in place."""
        return self._iterate(b, x, self.A.residual(b, x))

    def _iterate(self, b: ParVector, x: ParVector, r: ParVector) -> ParVector:
        """The recurrence from ``x`` with residual ``r = b - A x`` (consumed)."""
        A = self.A
        dinv = self.split.Dinv
        theta, delta = self.theta, self.delta

        r.data *= dinv
        self.split.record_diag_scale("cheby_scale")
        # Standard three-term Chebyshev recurrence (hypre's formulation).
        alpha = 1.0 / theta
        d = r.like(alpha * r.data)
        x.data += d.data
        x._record_local("axpy", 2.0, 3)
        sigma = theta / delta if delta > 0 else 0.0
        rho = 1.0 / sigma if sigma != 0 else 0.0
        for _ in range(self.degree - 1):
            r = A.residual(b, x)
            r.data *= dinv
            self.split.record_diag_scale("cheby_scale")
            rho_new = 1.0 / (2.0 * sigma - rho) if sigma != 0 else 0.0
            d.data = rho_new * rho * d.data + (
                2.0 * rho_new / delta if delta > 0 else 0.0
            ) * r.data
            x.data += d.data
            x._record_local("axpy", 2.0, 3)
            rho = rho_new
        return x
