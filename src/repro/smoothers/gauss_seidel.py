"""Classical hybrid Gauss-Seidel with exact triangular solves.

The reference the two-stage scheme approximates (paper eq. 3): per outer
iteration, each rank solves its block's ``(L + D)`` system exactly.  Used
for verification (the Neumann expansion must converge to this in at most
``block rows`` inner sweeps) and as the CPU-style smoother in cost studies
— the triangular solve is the part that "serializes" on GPUs.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve_triangular

from repro.linalg.parcsr import ParCSRMatrix
from repro.linalg.parvector import ParVector
from repro.smoothers.base import BlockSplitting


class HybridGS:
    """Hybrid Gauss-Seidel with exact block-local triangular solves.

    Construct through ``make_smoother("hybrid_gs", A, ...)``.
    """

    def __init__(
        self,
        A: ParCSRMatrix,
        outer_sweeps: int = 1,
        symmetric: bool = False,
    ) -> None:
        self.A = A
        self.split = BlockSplitting(A)
        self.outer_sweeps = outer_sweeps
        self.symmetric = symmetric
        n = A.shape[0]
        d = self.split.D
        self._LD = (self.split.L + sparse.diags(d)).tocsr()
        self._UD = (self.split.U + sparse.diags(d)).tocsr()

    def _tri_solve(self, rhs: np.ndarray, lower: bool) -> np.ndarray:
        M = self._LD if lower else self._UD
        out = spsolve_triangular(M, rhs, lower=lower)
        # Triangular solves move the same data as an SpMV but serialize on
        # level sets: cost the traffic, with extra launches for the levels.
        self.split.record_tri(lower, "gs_trisolve")
        return out

    def _local_sweep(self, res: np.ndarray) -> np.ndarray:
        g = self._tri_solve(res, lower=True)
        if self.symmetric:
            sp = self.split
            bd_res = res - (sp.L @ g + sp.U @ g + sp.D * g)
            sp.record_bd_residual("gs_bd_residual")
            g = g + self._tri_solve(bd_res, lower=False)
        return g

    def apply(self, r: ParVector) -> ParVector:
        """Preconditioner action with zero initial guess."""
        z = r.like(self._local_sweep(r.data))
        for _ in range(self.outer_sweeps - 1):
            res = self.A.residual(r, z)
            z.data += self._local_sweep(res.data)
        return z

    def smooth(self, b: ParVector, x: ParVector) -> ParVector:
        """Relax ``x`` in place."""
        for _ in range(self.outer_sweeps):
            res = self.A.residual(b, x)
            x.data += self._local_sweep(res.data)
        return x
