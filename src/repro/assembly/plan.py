"""Pattern-frozen assembly plans (setup reuse across Picard iterations).

The Stage-3 global assembly (Algorithms 1-2) is pattern-oblivious: every
call re-runs ``sort_reduce_by_key`` and re-splits the result into the
ParCSR ``diag``/``offd`` blocks, even though the sparsity pattern only
changes when the Stage-1 graph is rebuilt (mesh motion).
Production hypre amortizes this by freezing the IJ pattern after the first
assembly and doing value-only updates on subsequent fills.

An :class:`AssemblyPlan` captures, during one cold assembly, every
pattern-derived artifact of Algorithm 1/2:

* the destination-rank split bounds of each rank's send COO,
* the stable sort permutation over the stacked (owned + received) entries,
* the reduce-by-key segment boundaries,
* the diag/offd column-ownership split, and
* the assembled :class:`~repro.linalg.parcsr.ParCSRMatrix` itself.

Subsequent assemblies on the same pattern exchange *values only* and
replay the cached permutations as segmented sums straight into the
existing ParCSR storage — no re-sort, no re-split, no reallocation.  The
replay applies the exact same floating-point operations in the exact same
order as the cold path of the plan's ``variant``, so the fast-path
operator is bitwise identical to a cold assembly of the same fill.

Plan validity is the caller's contract: a plan captured for one pattern
must only be replayed on fills of that pattern.  The
:class:`~repro.assembly.graph.EquationGraph` revision is the one rule for
that: ``EquationSystem`` keys its plan on it and drops the plan when the
revision moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.assembly.local import LocalSystem
from repro.assembly.primitives import record_reduce_cost
from repro.comm.simcomm import SimWorld
from repro.linalg.parcsr import ParCSRMatrix
from repro.linalg.parvector import ParVector
from repro.partition.renumber import RankNumbering


@dataclass
class _RankMatrixPlan:
    """One rank's cached Algorithm-1 replay program."""

    own_nnz: int
    #: Stable sort permutation over the stacked value buffer (for the
    #: ``optimized``/``general`` variants: owned + received; for
    #: ``sparse_add``: owned + reduced-received).
    perm: np.ndarray
    #: Reduce segment starts aligned with ``perm``'s output.
    starts: np.ndarray
    #: ``sparse_add`` only: sort/reduce program for the received entries.
    recv_perm: np.ndarray | None = None
    recv_starts: np.ndarray | None = None


@dataclass
class _RankVectorPlan:
    """One rank's cached Algorithm-2 replay program."""

    own_n: int
    #: Sort permutation over the received (or, for ``general``, stacked)
    #: RHS entries; ``starts`` are the reduce segment boundaries.
    perm: np.ndarray
    starts: np.ndarray
    #: Local (rank-offset) target rows of the reduced entries.
    target: np.ndarray


def _segmented_sum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``np.add.reduceat`` with the empty-input guard sort_reduce_by_key has."""
    if values.size == 0:
        return values[:0]
    return np.add.reduceat(values, starts)


class AssemblyPlan:
    """Cached pattern artifacts for value-only global (re)assembly.

    One plan covers both the matrix (Algorithm 1) and vector
    (Algorithm 2) paths of one equation on one frozen pattern.  Capture
    happens inside :func:`~repro.assembly.global_assembly
    .assemble_global_matrix` / ``assemble_global_vector`` when a
    not-yet-ready plan is passed; once ``matrix_ready``/``vector_ready``
    the same calls take the fast path.
    """

    def __init__(
        self,
        numbering: RankNumbering,
        variant: str = "optimized",
        graph: object | None = None,
        name: str = "A",
    ) -> None:
        self.numbering = numbering
        self.variant = variant
        self.graph = graph
        self.graph_revision = getattr(graph, "revision", None)
        self.name = name
        self.matrix_ready = False
        self.vector_ready = False
        #: The live operator, updated in place by the fast path.
        self.matrix: ParCSRMatrix | None = None
        self.diag_nnz: list[int] = []
        self.offd_nnz: list[int] = []
        self._mat: list[_RankMatrixPlan] = []
        self._vec: list[_RankVectorPlan] = []
        #: Per-rank destination split bounds of the send COO / send RHS.
        self._mat_send_bounds: list[np.ndarray | None] = []
        self._vec_send_bounds: list[np.ndarray | None] = []

    # -- capture (filled by the cold assembly) -------------------------------------

    def begin_matrix_capture(self) -> None:
        """Reset matrix-side state before a (re)capture pass."""
        self.matrix_ready = False
        self.matrix = None
        self.diag_nnz = []
        self.offd_nnz = []
        self._mat = []
        self._mat_send_bounds = []

    def begin_vector_capture(self) -> None:
        """Reset vector-side state before a (re)capture pass."""
        self.vector_ready = False
        self._vec = []
        self._vec_send_bounds = []

    # -- fast paths -----------------------------------------------------------------

    def _split_values(
        self, values: np.ndarray, bounds: np.ndarray | None, self_rank: int
    ) -> list[np.ndarray | None]:
        """Destination split of a value array via the cached bounds."""
        nranks = self.numbering.nranks
        out: list[np.ndarray | None] = [None] * nranks
        if bounds is None:
            return out
        for q in range(nranks):
            lo, hi = bounds[q], bounds[q + 1]
            if q == self_rank or hi <= lo:
                continue
            out[q] = values[lo:hi]
        return out

    def run_matrix(self, world: SimWorld, local: LocalSystem):
        """Value-only Algorithm 1: exchange, segmented-sum, scatter.

        Returns the plan's :class:`ParCSRMatrix` (updated in place) plus
        the cached diag/offd counts, mirroring the cold path's
        ``AssembledMatrix`` fields.
        """
        nranks = self.numbering.nranks
        send = [
            self._split_values(
                local.send_matrix[r].a, self._mat_send_bounds[r], r
            )
            for r in range(nranks)
        ]
        recv = world.alltoallv(send)
        matrix = self.matrix
        for r in range(nranks):
            rp = self._mat[r]
            a_all = np.concatenate([local.own_matrix[r].a] + list(recv[r]))
            # Transient stacked value buffer (value-only: 8 B/entry).
            staged = 8.0 * a_all.size
            world.charge_alloc(staged, ranks=[r])
            if self.variant == "sparse_add":
                a_r = a_all[rp.own_nnz :]
                a_ru = _segmented_sum(a_r[rp.recv_perm], rp.recv_starts)
                record_reduce_cost(
                    world, r, a_r.size, 8, kernel="asm_value_reduce"
                )
                stacked = np.concatenate([a_all[: rp.own_nnz], a_ru])
                a_u = _segmented_sum(stacked[rp.perm], rp.starts)
                record_reduce_cost(
                    world, r, stacked.size, 8, kernel="asm_value_reduce"
                )
            else:
                a_u = _segmented_sum(a_all[rp.perm], rp.starts)
                record_reduce_cost(
                    world, r, a_all.size, 8, kernel="asm_value_reduce"
                )
            matrix.update_rank_values(r, a_u)
            world.charge(
                "asm_value_scatter",
                nbytes=24.0 * a_u.size,
                launches=2,
                ranks=[r],
            )
            world.charge_alloc(-staged, ranks=[r])
        world.metrics.counter(
            "assembly.plan_hits", equation=self.name
        ).inc()
        return matrix, list(self.diag_nnz), list(self.offd_nnz)

    def run_vector(self, world: SimWorld, local: LocalSystem) -> ParVector:
        """Value-only Algorithm 2 via the cached permutations."""
        nranks = self.numbering.nranks
        offsets = self.numbering.offsets
        send = [
            self._split_values(
                local.send_rhs[r].r, self._vec_send_bounds[r], r
            )
            for r in range(nranks)
        ]
        recv = world.alltoallv(send)
        out = ParVector(world, offsets)
        for r in range(nranks):
            vp = self._vec[r]
            target = out.local(r)
            own = local.own_rhs[r]
            if self.variant == "general":
                v_all = np.concatenate([own.r] + list(recv[r]))
                v_u = _segmented_sum(v_all[vp.perm], vp.starts)
                record_reduce_cost(
                    world, r, v_all.size, 8, kernel="vec_value_reduce"
                )
                target[vp.target] = v_u
            else:
                v_r = (
                    np.concatenate(list(recv[r]))
                    if recv[r]
                    else np.zeros(0)
                )
                target[:] = own.r
                if v_r.size:
                    v_u = _segmented_sum(v_r[vp.perm], vp.starts)
                    record_reduce_cost(
                        world, r, v_r.size, 8, kernel="vec_value_reduce"
                    )
                    target[vp.target] += v_u
            world.charge(
                "vec_copy",
                float(vp.perm.size),
                16.0 * vp.own_n + 24.0 * vp.perm.size,
                launches=2,
                ranks=[r],
            )
        world.metrics.counter(
            "assembly.vector_plan_hits", equation=self.name
        ).inc()
        return out
