"""Shared smoother infrastructure.

Smoothers operate on :class:`~repro.linalg.ParCSRMatrix` operators.  The
*hybrid* family (paper §4.2, ref [41]) relaxes only within each rank's
diagonal block: "neighboring processes first exchange the elements of the
solution vector on the boundary, but then each process independently
applies the local relaxation".  The block-diagonal splitting takes its
pattern half — triangle positions, index arrays and per-rank work — from
the operator (:attr:`ParCSRMatrix.block_split`, built once per operator),
so every application records honest per-rank roofline work.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.parcsr import ParCSRMatrix


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
        # The pattern half is the operator's own (built on its first
        # smoother); this object gathers the current values through it.
        split = A.block_split
        self.L = split.triangle(A.D.data, lower=True)
        self.U = split.triangle(A.D.data, lower=False)
        d = A.diagonal()
        if np.any(d == 0.0):
            raise ValueError("smoother requires a nonzero diagonal")
        self.D = d
        self.Dinv = 1.0 / d
        self._L_work = split.lower_work
        self._U_work = split.upper_work
        self._bd_work = split.bd_work
        self._scale_work = split.scale_work
        # Setup work: recorded so preconditioner-setup phases that build
        # smoothers are visible to the cost model.
        self.world.charge("smoother_setup", *split.setup_work, launches=3)

    def record_tri(self, lower: bool, kernel: str) -> None:
        """Record one block-local triangular SpMV."""
        self.world.charge(kernel, *(self._L_work if lower else self._U_work))

    def record_bd_residual(self, kernel: str) -> None:
        """Record one block-diagonal residual SpMV (``L + U + D``)."""
        self.world.charge(kernel, *self._bd_work)

    def record_diag_scale(self, kernel: str = "dscale") -> None:
        """Record one diagonal scaling pass."""
        self.world.charge(kernel, *self._scale_work)
