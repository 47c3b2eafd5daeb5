"""Jacobi and l1-Jacobi smoothers.

Jacobi is the zero-inner-sweep limit of the two-stage Gauss-Seidel scheme
(paper §4.2: "When zero inner sweeps are performed ... this special case
corresponds to Jacobi-Richardson for the global system").  l1-Jacobi damps
the diagonal by each row's off-diagonal l1 norm, a standard ultraparallel
smoother from the same hypre family [41].
"""

from __future__ import annotations

import numpy as np

from repro.linalg.parcsr import ParCSRMatrix
from repro.linalg.parvector import ParVector
from repro.smoothers.base import BlockSplitting


class JacobiSmoother:
    """Damped (point) Jacobi: ``x += omega * D^-1 (b - A x)``.

    Construct through ``make_smoother("jacobi", A, omega=..., sweeps=...)``.
    """

    def __init__(self, A: ParCSRMatrix, omega: float = 0.8, sweeps: int = 1) -> None:
        self.A = A
        self.omega = omega
        self.sweeps = sweeps
        d = A.diagonal().copy()
        if np.any(d == 0.0):
            raise ValueError("Jacobi requires a nonzero diagonal")
        self.dinv = 1.0 / d
        self.split = BlockSplitting(A)

    def smooth(self, b: ParVector, x: ParVector) -> ParVector:
        """Apply ``sweeps`` damped-Jacobi updates in place."""
        for _ in range(self.sweeps):
            r = self.A.residual(b, x)
            x.data += self.omega * self.dinv * r.data
            self.split.record_diag_scale("jacobi_update")
        return x

    def apply(self, r: ParVector) -> ParVector:
        """Preconditioner action with zero initial guess."""
        z = r.like(self.omega * self.dinv * r.data)
        self.split.record_diag_scale("jacobi_update")
        for _ in range(self.sweeps - 1):
            res = self.A.residual(r, z)
            z.data += self.omega * self.dinv * res.data
            self.split.record_diag_scale("jacobi_update")
        return z


class L1JacobiSmoother(JacobiSmoother):
    """l1-Jacobi: diagonal augmented by the off-diagonal row l1 norm.

    Unconditionally convergent for symmetric positive definite systems,
    which is what makes it safe as an AMG smoother at high parallelism.
    """

    def __init__(self, A: ParCSRMatrix, sweeps: int = 1) -> None:
        super().__init__(A, omega=1.0, sweeps=sweeps)
        M = abs(A.A)
        l1 = np.asarray(M.sum(axis=1)).ravel() - np.abs(A.diagonal())
        d = np.abs(A.diagonal()) + l1
        self.dinv = np.sign(A.diagonal()) / d
