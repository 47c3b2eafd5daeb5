"""HYPRE IJ-style assembly interface.

Paper §3.3: "From the application perspective, the assembled COO matrices
are injected into hypre API methods ... the advantage of this implementation
is that it completes the assembly in six hypre API calls":

* ``HYPRE_IJMatrixSetValues2`` / ``HYPRE_IJVectorSetValues2`` for owned rows,
* ``HYPRE_IJMatrixAddToValues2`` / ``HYPRE_IJVectorAddToValues2`` for
  off-rank contributions,
* ``HYPRE_IJMatrixAssemble`` / ``HYPRE_IJVectorAssemble`` encapsulating
  Algorithms 1 and 2.

These classes mirror that call sequence on top of the global-assembly
implementations, so an application can drive assembly without touching the
pipeline internals.
"""

from __future__ import annotations

import numpy as np

from repro.assembly.global_assembly import (
    AssembledMatrix,
    assemble_global_matrix,
    assemble_global_vector,
)
from repro.assembly.local import LocalSystem, RankCOO, RankRHS
from repro.assembly.plan import AssemblyPlan
from repro.assembly.primitives import reduce_by_key, stable_sort_by_key
from repro.comm.simcomm import SimWorld
from repro.linalg.parvector import ParVector
from repro.partition.renumber import RankNumbering


def _sorted_unique_coo(
    i: np.ndarray, j: np.ndarray, a: np.ndarray
) -> RankCOO:
    """Row-major sort + duplicate accumulation (IJ input normalization).

    Host-side staging through the two primitives; the device sort/reduce
    of these entries is priced at ``assemble()`` (asm_sort/asm_reduce).
    """
    (i, j), a = reduce_by_key(*stable_sort_by_key((i, j), a))
    return RankCOO(i=i, j=j, a=a)


class HypreIJMatrix:
    """Per-rank COO staging + Algorithm 1 assembly.

    With ``reuse_plan=True`` the matrix freezes its sparsity pattern at
    the first :meth:`assemble` (hypre's
    ``HYPRE_IJMatrixSetConstantValues``-era amortization): subsequent
    assemblies on identical staged index arrays take the value-only
    :class:`~repro.assembly.plan.AssemblyPlan` fast path.  Staging a
    *different* pattern for any rank transparently drops the plan and the
    next assemble re-captures it.
    """

    def __init__(
        self,
        world: SimWorld,
        numbering: RankNumbering,
        variant: str = "optimized",
        name: str = "A",
        reuse_plan: bool = False,
    ) -> None:
        self.world = world
        self.numbering = numbering
        self.variant = variant
        self.name = name
        self.reuse_plan = reuse_plan
        self._plan: AssemblyPlan | None = None
        nr = numbering.nranks
        empty = lambda: RankCOO(
            i=np.zeros(0, dtype=np.int64),
            j=np.zeros(0, dtype=np.int64),
            a=np.zeros(0),
        )
        self._own = [empty() for _ in range(nr)]
        self._send = [empty() for _ in range(nr)]

    def _stage(self, store: list[RankCOO], rank: int, coo: RankCOO) -> None:
        """Install staged entries, dropping the plan on a pattern change."""
        if self.reuse_plan and self._plan is not None:
            old = store[rank]
            if not (
                np.array_equal(old.i, coo.i) and np.array_equal(old.j, coo.j)
            ):
                self._plan = None
        store[rank] = coo

    def set_values2(
        self, rank: int, i: np.ndarray, j: np.ndarray, a: np.ndarray
    ) -> None:
        """Stage owned-row entries for ``rank`` (replaces prior staging)."""
        lo, hi = self.numbering.offsets[rank], self.numbering.offsets[rank + 1]
        if i.size and (i.min() < lo or i.max() >= hi):
            raise ValueError("set_values2 rows must be owned by the rank")
        coo = _sorted_unique_coo(
            np.asarray(i, dtype=np.int64),
            np.asarray(j, dtype=np.int64),
            np.asarray(a, dtype=np.float64),
        )
        self._stage(self._own, rank, coo)

    def add_to_values2(
        self, rank: int, i: np.ndarray, j: np.ndarray, a: np.ndarray
    ) -> None:
        """Stage off-rank contributions from ``rank``."""
        lo, hi = self.numbering.offsets[rank], self.numbering.offsets[rank + 1]
        i = np.asarray(i, dtype=np.int64)
        if i.size and np.any((i >= lo) & (i < hi)):
            raise ValueError("add_to_values2 rows must be owned elsewhere")
        coo = _sorted_unique_coo(
            i, np.asarray(j, dtype=np.int64), np.asarray(a, dtype=np.float64)
        )
        self._stage(self._send, rank, coo)

    def assemble(self) -> AssembledMatrix:
        """HYPRE_IJMatrixAssemble: run Algorithm 1 over the staged pieces."""
        nr = self.numbering.nranks
        dummy_rhs = [
            RankRHS(i=np.zeros(0, dtype=np.int64), r=np.zeros(0))
            for _ in range(nr)
        ]
        local = LocalSystem(
            own_matrix=self._own,
            send_matrix=self._send,
            own_rhs=dummy_rhs,
            send_rhs=dummy_rhs,
        )
        if self.reuse_plan and self._plan is None:
            self._plan = AssemblyPlan(
                self.numbering, self.variant, name=self.name
            )
        return assemble_global_matrix(
            self.world,
            self.numbering,
            local,
            self.variant,
            name=self.name,
            plan=self._plan,
        )


class HypreIJVector:
    """Per-rank RHS staging + Algorithm 2 assembly.

    ``reuse_plan=True`` mirrors :class:`HypreIJMatrix`: the shared-row
    pattern freezes at the first :meth:`assemble` and later assemblies
    with identical ``add_to_values2`` row sets replay the cached plan.
    """

    def __init__(
        self,
        world: SimWorld,
        numbering: RankNumbering,
        variant: str = "optimized",
        reuse_plan: bool = False,
    ) -> None:
        self.world = world
        self.numbering = numbering
        self.variant = variant
        self.reuse_plan = reuse_plan
        self._plan: AssemblyPlan | None = None
        nr = numbering.nranks
        self._own: list[np.ndarray] = [
            np.zeros(int(numbering.offsets[r + 1] - numbering.offsets[r]))
            for r in range(nr)
        ]
        self._send = [
            RankRHS(i=np.zeros(0, dtype=np.int64), r=np.zeros(0))
            for _ in range(nr)
        ]

    def set_values2(self, rank: int, i: np.ndarray, v: np.ndarray) -> None:
        """Stage owned values (dense per-rank slice semantics)."""
        lo = self.numbering.offsets[rank]
        self._own[rank][np.asarray(i, dtype=np.int64) - lo] = v

    def add_to_values2(self, rank: int, i: np.ndarray, v: np.ndarray) -> None:
        """Stage off-rank RHS contributions from ``rank`` (host-side sort;
        the device cost is priced at ``assemble()``: vec_sort/vec_reduce)."""
        i = np.asarray(i, dtype=np.int64)
        lo, hi = self.numbering.offsets[rank], self.numbering.offsets[rank + 1]
        if i.size and np.any((i >= lo) & (i < hi)):
            raise ValueError("add_to_values2 rows must be owned elsewhere")
        (i,), v = stable_sort_by_key((i,), np.asarray(v, dtype=np.float64))
        staged = RankRHS(i=i, r=v)
        if (
            self.reuse_plan
            and self._plan is not None
            and not np.array_equal(self._send[rank].i, staged.i)
        ):
            self._plan = None
        self._send[rank] = staged

    def assemble(self) -> ParVector:
        """HYPRE_IJVectorAssemble: run Algorithm 2 over the staged pieces."""
        nr = self.numbering.nranks
        own = [
            RankRHS(
                i=np.arange(
                    self.numbering.offsets[r],
                    self.numbering.offsets[r + 1],
                    dtype=np.int64,
                ),
                r=self._own[r],
            )
            for r in range(nr)
        ]
        empty_m = [
            RankCOO(
                i=np.zeros(0, dtype=np.int64),
                j=np.zeros(0, dtype=np.int64),
                a=np.zeros(0),
            )
            for _ in range(nr)
        ]
        local = LocalSystem(
            own_matrix=empty_m,
            send_matrix=empty_m,
            own_rhs=own,
            send_rhs=self._send,
        )
        if self.reuse_plan and self._plan is None:
            self._plan = AssemblyPlan(self.numbering, self.variant, name="b")
        return assemble_global_vector(
            self.world, self.numbering, local, self.variant, plan=self._plan
        )
