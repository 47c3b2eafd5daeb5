"""Shared smoother infrastructure.

Smoothers operate on :class:`~repro.linalg.ParCSRMatrix` operators.  The
*hybrid* family (paper §4.2, ref [41]) relaxes only within each rank's
diagonal block: "neighboring processes first exchange the elements of the
solution vector on the boundary, but then each process independently
applies the local relaxation".  The block-diagonal splitting pieces are
precomputed here, along with per-rank nnz shares so every application
records honest per-rank roofline work.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.linalg.parcsr import ParCSRMatrix, spmv_bytes
from repro.linalg.parvector import ParVector


def rank_nnz_shares(A: sparse.csr_matrix, offsets: np.ndarray) -> np.ndarray:
    """Nonzeros per rank-owned row block of a global matrix."""
    return np.diff(A.indptr[offsets]).astype(np.int64)


def local_spmv_work(
    rank_nnz: np.ndarray, offsets: np.ndarray
) -> tuple[list[float], list[float]]:
    """Per-rank ``(flops, bytes)`` of one block-local SpMV (no
    communication), as :meth:`SimWorld.charge` takes them."""
    return (
        (2.0 * rank_nnz).tolist(),
        spmv_bytes(rank_nnz, np.diff(offsets)).tolist(),
    )


class BlockSplitting:
    """Block-diagonal L/D/U splitting of a ParCSR operator.

    ``A_bd`` keeps only within-rank couplings; ``L``/``U`` are its strictly
    lower/upper parts and ``D`` the full main diagonal of ``A`` (hypre keeps
    the true diagonal even for the hybrid smoother).
    """

    def __init__(self, A: ParCSRMatrix) -> None:
        self.A = A
        self.world = A.world
        self.offsets = A.row_offsets
        A_bd = A.block_diagonal()
        self.L = sparse.tril(A_bd, k=-1).tocsr()
        self.U = sparse.triu(A_bd, k=1).tocsr()
        d = A.diagonal().copy()
        if np.any(d == 0.0):
            raise ValueError("smoother requires a nonzero diagonal")
        self.D = d
        self.Dinv = 1.0 / d
        # Per-rank work of every application kernel, derived once here.
        L_nnz = rank_nnz_shares(self.L, self.offsets)
        U_nnz = rank_nnz_shares(self.U, self.offsets)
        sizes = np.diff(self.offsets)
        self._L_work = local_spmv_work(L_nnz, self.offsets)
        self._U_work = local_spmv_work(U_nnz, self.offsets)
        self._bd_work = local_spmv_work(L_nnz + U_nnz + sizes, self.offsets)
        self._scale_work = ((1.0 * sizes).tolist(), (24.0 * sizes).tolist())
        # Setup work: extracting the splitting is one pass over the local
        # matrix per rank (recorded so preconditioner-setup phases that
        # build smoothers are visible to the cost model).
        nnz = [A.local_nnz(r) for r in range(self.world.size)]
        self.world.charge(
            "smoother_setup",
            [float(z) for z in nnz],
            [2.0 * 12.0 * z for z in nnz],
            launches=3,
        )

    def record_tri(self, lower: bool, kernel: str) -> None:
        """Record one block-local triangular SpMV."""
        self.world.charge(kernel, *(self._L_work if lower else self._U_work))

    def record_bd_residual(self, kernel: str) -> None:
        """Record one block-diagonal residual SpMV (``L + U + D``)."""
        self.world.charge(kernel, *self._bd_work)

    def record_diag_scale(self, kernel: str = "dscale") -> None:
        """Record one diagonal scaling pass."""
        self.world.charge(kernel, *self._scale_work)
