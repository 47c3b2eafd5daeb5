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

from repro.comm.simcomm import SimWorld
from repro.linalg.parcsr import ParCSRMatrix, spmv_bytes
from repro.linalg.parvector import ParVector


def rank_nnz_shares(A: sparse.csr_matrix, offsets: np.ndarray) -> np.ndarray:
    """Nonzeros per rank-owned row block of a global matrix."""
    row_nnz = np.diff(A.indptr)
    nranks = len(offsets) - 1
    out = np.zeros(nranks, dtype=np.int64)
    for r in range(nranks):
        out[r] = int(row_nnz[offsets[r] : offsets[r + 1]].sum())
    return out


def record_local_spmv(
    world: SimWorld,
    rank_nnz: np.ndarray,
    offsets: np.ndarray,
    kernel: str,
) -> None:
    """Record one block-local SpMV (no communication) for every rank."""
    phase = world.phase
    for r in range(len(rank_nnz)):
        nrows = int(offsets[r + 1] - offsets[r])
        world.ops.record(
            phase,
            r,
            kernel,
            flops=2.0 * float(rank_nnz[r]),
            nbytes=spmv_bytes(int(rank_nnz[r]), nrows),
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
        self.L_rank_nnz = rank_nnz_shares(self.L, self.offsets)
        self.U_rank_nnz = rank_nnz_shares(self.U, self.offsets)
        # Setup work: extracting the splitting is one pass over the local
        # matrix per rank (recorded so preconditioner-setup phases that
        # build smoothers are visible to the cost model).
        for r in range(self.world.size):
            nnz = A.local_nnz(r)
            self.world.ops.record(
                self.world.phase,
                r,
                "smoother_setup",
                flops=float(nnz),
                nbytes=2.0 * 12.0 * nnz,
                launches=3,
            )

    def record_tri(self, lower: bool, kernel: str) -> None:
        """Record one block-local triangular SpMV."""
        record_local_spmv(
            self.world,
            self.L_rank_nnz if lower else self.U_rank_nnz,
            self.offsets,
            kernel,
        )

    def record_diag_scale(self, kernel: str = "dscale") -> None:
        """Record one diagonal scaling pass."""
        phase = self.world.phase
        for r in range(len(self.L_rank_nnz)):
            n = int(self.offsets[r + 1] - self.offsets[r])
            self.world.ops.record(phase, r, kernel, flops=float(n), nbytes=24.0 * n)
