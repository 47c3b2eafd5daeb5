"""AMG V-cycle (solve-phase application).

Applies the hierarchy of :mod:`repro.amg.hierarchy` as a preconditioner or
stand-alone solver: pre-smooth, restrict the residual, recurse, prolongate
the correction, post-smooth — with every SpMV, smoother sweep, and
transfer-operator product recorded through the ParCSR instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.amg.hierarchy import AMGHierarchy
from repro.linalg.parvector import ParVector


@dataclass
class AMGCycleOptions:
    """V-cycle shape."""

    pre_sweeps: int = 1
    post_sweeps: int = 1


class AMGPreconditioner:
    """V(pre, post)-cycle wrapper exposing the preconditioner protocol."""

    def __init__(
        self,
        hierarchy: AMGHierarchy,
        options: AMGCycleOptions | None = None,
    ) -> None:
        self.h = hierarchy
        self.options = options or AMGCycleOptions()

    # -- recursion --------------------------------------------------------------

    def _coarse_solve(self, b: ParVector) -> ParVector:
        Ac = self.h.levels[-1].A
        world = Ac.world
        x = self.h.coarse_lu.solve(b.data)
        n = Ac.shape[0]
        nnz_lu = self.h.coarse_lu.nnz if hasattr(self.h.coarse_lu, "nnz") else Ac.nnz
        # Redundant direct solve: every rank gathers b and back-substitutes.
        world.collective("allgather", 8 * n)
        world.charge(
            "amg_coarse_solve", 4.0 * nnz_lu, 12.0 * nnz_lu, launches=2
        )
        return ParVector(world, Ac.row_offsets, x)

    def _vcycle(
        self, level: int, b: ParVector, x: ParVector | None = None
    ) -> ParVector:
        """One cycle from ``level`` down; ``x=None`` is the zero guess every
        coarse level (and the preconditioner action) starts from, whose
        first pre-sweep is the smoother's ``apply(b)``: ``smooth`` without
        the residual ``b - A 0`` and its halo round."""
        lvl = self.h.levels[level]
        if level == len(self.h.levels) - 1:
            return self._coarse_solve(b)
        pre_sweeps = self.options.pre_sweeps
        if x is None:
            x = lvl.smoother.apply(b) if pre_sweeps else b.like(np.zeros(b.n))
            pre_sweeps -= 1  # -1 with no pre-sweeps: an empty range below
        for _ in range(pre_sweeps):
            lvl.smoother.smooth(b, x)
        r = lvl.A.residual(b, x)
        xc = self._vcycle(level + 1, lvl.R.matvec(r))
        dx = lvl.P.matvec(xc)
        x.data += dx.data
        x._record_local("axpy", 2.0, 3)
        for _ in range(self.options.post_sweeps):
            lvl.smoother.smooth(b, x)
        return x

    # -- public API ---------------------------------------------------------------

    def apply(self, r: ParVector) -> ParVector:
        """One V-cycle with zero initial guess (preconditioner action)."""
        return self._vcycle(0, r)

    def solve(
        self,
        b: ParVector,
        x0: ParVector | None = None,
        tol: float = 1e-8,
        max_cycles: int = 60,
    ) -> tuple[ParVector, list[float]]:
        """Stand-alone V-cycle iteration to a relative-residual tolerance.

        Returns:
            ``(x, history)`` where history holds relative residual norms
            (one per cycle, plus the initial one).
        """
        A = self.h.levels[0].A
        x = b.like(np.zeros(b.n)) if x0 is None else x0.copy()
        bnorm = b.norm()
        if bnorm == 0:
            return x, [0.0]
        history = [A.residual(b, x).norm() / bnorm]
        for _ in range(max_cycles):
            x = self._vcycle(0, b, x)
            history.append(A.residual(b, x).norm() / bnorm)
            if history[-1] <= tol:
                break
        return x, history
