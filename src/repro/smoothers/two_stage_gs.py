"""Two-stage (hybrid) Gauss-Seidel smoothers and the SGS2 preconditioner.

Paper §4.2.  The classical hybrid Gauss-Seidel applies a sparse-triangular
solve per rank block; on GPUs that solve serializes, so the two-stage scheme
replaces it with ``s`` inner Jacobi-Richardson sweeps:

    g(0) = D^-1 r                                  (eq. 5)
    g(j+1) = D^-1 (r - L g(j))                     (eq. 7)

which is the degree-``s`` Neumann expansion of ``(I + D^-1 L)^-1 D^-1`` —
exact after finitely many sweeps because ``D^-1 L`` is strictly lower
triangular and hence nilpotent.  With zero inner sweeps the scheme reduces
to Jacobi-Richardson.  The outer recurrence (eq. 4) updates with the full
(communicated) residual; the symmetric variant chains a forward and a
backward stage per outer iteration (eqs. 11-14), giving the SGS2
preconditioner used for the momentum system ("Two outer and two inner
iterations often leads to rapid convergence in less than five
preconditioned GMRES iterations").

All triangular products act on the rank-block-diagonal part only (the
*hybrid* aspect): rank count genuinely affects convergence here, as on the
real machine.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.parcsr import ParCSRMatrix
from repro.linalg.parvector import ParVector
from repro.smoothers.base import BlockSplitting


class TwoStageGS:
    """Two-stage hybrid Gauss-Seidel relaxation / preconditioner.

    Args:
        A: operator.
        inner_sweeps: Jacobi-Richardson iterations approximating each
            triangular solve (``s`` in the paper; 0 = plain Jacobi).
        outer_sweeps: outer recurrences per application (eq. 4).
        symmetric: chain forward+backward stages (SGS2) when True.
    """

    def __init__(
        self,
        A: ParCSRMatrix,
        inner_sweeps: int = 1,
        outer_sweeps: int = 1,
        symmetric: bool = False,
    ) -> None:
        if inner_sweeps < 0 or outer_sweeps < 1:
            raise ValueError("need inner_sweeps >= 0 and outer_sweeps >= 1")
        self.A = A
        self.split = BlockSplitting(A)
        self.inner_sweeps = inner_sweeps
        self.outer_sweeps = outer_sweeps
        self.symmetric = symmetric

    # -- stages -----------------------------------------------------------------

    def _jr_solve(self, r: np.ndarray, lower: bool) -> np.ndarray:
        """Approximate ``(D + T)^-1 r`` with inner JR sweeps (T = L or U)."""
        sp = self.split
        T = sp.L if lower else sp.U
        g = sp.Dinv * r
        sp.record_diag_scale("tsgs_init")
        for _ in range(self.inner_sweeps):
            g = sp.Dinv * (r - T @ g)
            sp.record_tri(lower, "tsgs_inner")
            sp.record_diag_scale("tsgs_inner_scale")
        return g

    def _local_sweep(self, res: np.ndarray) -> np.ndarray:
        """One block-local relaxation (forward, or forward+backward)."""
        sp = self.split
        g = self._jr_solve(res, lower=True)
        if self.symmetric:
            # Block-local residual, then the backward stage (eqs. 13-14).
            bd_res = res - (sp.L @ g + sp.U @ g + sp.D * g)
            sp.record_bd_residual("tsgs_bd_residual")
            g = g + self._jr_solve(bd_res, lower=False)
        return g

    # -- public API -----------------------------------------------------------------

    def apply(self, r: ParVector) -> ParVector:
        """Preconditioner action ``z ~= M^-1 r`` (zero initial guess)."""
        z = r.like(self._local_sweep(r.data))
        for _ in range(self.outer_sweeps - 1):
            res = self.A.residual(r, z)  # full residual: halo exchange
            z.data += self._local_sweep(res.data)
        return z

    def smooth(self, b: ParVector, x: ParVector) -> ParVector:
        """Relax ``x`` in place with ``outer_sweeps`` outer iterations."""
        for _ in range(self.outer_sweeps):
            res = self.A.residual(b, x)
            x.data += self._local_sweep(res.data)
        return x
