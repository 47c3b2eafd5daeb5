"""ParCSR distributed sparse matrices (the hypre layout).

hypre stores each rank's rows as two CSR blocks (paper §3.3, Algorithm 1's
final split): ``diag`` holds the columns the rank owns, ``offd`` holds
external columns compressed through ``col_map_offd`` (sorted unique global
ids).  SpMV then needs one halo exchange of exactly the external entries
("an efficient decomposition for performing SpMVs in parallel ... the
primary workhorse of Krylov and AMG algorithms").

The simulator runs every rank in one process, so the blocks are stored
*stacked over the rank dimension*: ``D`` is the block-diagonal matrix of all
``diag`` blocks (global column ids) and ``O`` stacks all ``offd`` blocks,
rank ``r``'s compressed columns offset by where its part of the round's
external buffer starts.  One distributed SpMV is one halo round and two
kernels, ``y = D @ x; y += O @ ext`` — within a row the entries keep their
order, so this is bitwise the per-rank ``diag @ x_r`` then ``+= offd @
ext_r`` — while kernel work is still recorded per rank (global numerics,
per-rank accounting: the convention the smoothers' block splitting uses).
:attr:`ParCSRMatrix.blocks` exposes the per-rank CSRs as views of the
stacked storage.  The global CSR is kept alongside for set-up algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from repro.comm.exchange import (
    ExchangePattern,
    build_exchange_pattern,
    exchange_halo,
    overlapped_halo,
)
from repro.comm.simcomm import SimWorld
from repro.linalg.parvector import ParVector


class SparsityPatternError(ValueError):
    """New values do not have the sparsity pattern the operator stores."""


@dataclass
class RankBlocks:
    """One rank's ParCSR storage."""

    diag: sparse.csr_matrix
    offd: sparse.csr_matrix
    col_map_offd: np.ndarray

    @property
    def nnz(self) -> int:
        """Stored nonzeros (diag + offd)."""
        return self.diag.nnz + self.offd.nnz


def spmv_bytes(
    nnz: int | np.ndarray, nrows: int | np.ndarray
) -> float | np.ndarray:
    """Traffic model of a CSR SpMV: values+indices+indptr+x gather+y write.

    Elementwise over per-rank arrays as well as scalars.
    """
    return 12.0 * nnz + 8.0 * nnz + 12.0 * nrows


def _row_block(
    M: sparse.csr_matrix, rlo: int, rhi: int, col_lo: int, ncols: int
) -> sparse.csr_matrix:
    """Rows ``[rlo, rhi)`` of a stacked CSR as a CSR of their own, columns
    renumbered from ``col_lo``; ``data`` is a view of ``M.data``."""
    s, e = M.indptr[rlo], M.indptr[rhi]
    block = sparse.csr_matrix(
        (M.data[s:e], M.indices[s:e] - col_lo, M.indptr[rlo : rhi + 1] - s),
        shape=(rhi - rlo, ncols),
    )
    # The constructor copies a view of a much larger array; share the
    # storage, so a value update of the stacked matrix is seen here too.
    block.data = M.data[s:e]
    return block


class ParCSRMatrix:
    """A square (or rectangular) matrix in rank-block row distribution."""

    def __init__(
        self,
        world: SimWorld,
        A: sparse.spmatrix,
        row_offsets: np.ndarray,
        col_offsets: np.ndarray | None = None,
        name: str = "A",
    ) -> None:
        self.world = world
        self.name = name
        self.A = sparse.csr_matrix(A)
        # Canonical storage order (row-major, columns ascending): the
        # value-only update paths rely on it to align with row-sorted
        # unique COO values.  No-op when already sorted.
        self.A.sort_indices()
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        self.col_offsets = (
            self.row_offsets
            if col_offsets is None
            else np.asarray(col_offsets, dtype=np.int64)
        )
        if self.A.shape[0] != self.row_offsets[-1]:
            raise ValueError("row offsets do not cover the matrix rows")
        if self.A.shape[1] != self.col_offsets[-1]:
            raise ValueError("col offsets do not cover the matrix cols")
        self._stack_blocks()
        self.pattern: ExchangePattern = build_exchange_pattern(
            self.col_offsets, self._col_maps
        )
        #: Receive buffer of every matvec's halo round (``O``'s columns).
        self._ext = np.empty(self.O.shape[1])
        self._record_storage()

    # -- setup ------------------------------------------------------------------

    def _stack_blocks(self) -> None:
        """Split the global CSR into the stacked ``D`` and ``O``.

        One vectorised pass: an entry is ``diag`` when its column lies in
        its row's rank's column range; external columns are compressed
        per rank through the sorted unique ``(rank, column)`` pairs, which
        also yields every ``col_map_offd``.  The global ``in_diag`` mask
        is kept (in CSR storage order) so value-only updates re-scatter
        values into the existing storage without re-splitting.
        """
        A, nranks = self.A, self.world.size
        ro, co = self.row_offsets, self.col_offsets
        n, ncols = A.shape
        cols = A.indices
        # Rank r's entries are A.data[ent_bounds[r]:ent_bounds[r+1]].
        self._ent_bounds = A.indptr[ro].astype(np.int64)
        ent_rank = np.repeat(np.arange(nranks), np.diff(self._ent_bounds))
        in_diag = (cols >= co[ent_rank]) & (cols < co[ent_rank + 1])
        self._diag_mask = in_diag
        off = ~in_diag
        d_indptr = np.concatenate(([0], np.cumsum(in_diag)))[A.indptr]
        self.D = sparse.csr_matrix(
            (A.data[in_diag], cols[in_diag], d_indptr), shape=(n, ncols)
        )
        # Keys sort rank-major, column ascending: the unique keys are the
        # concatenated col_map_offd's, the inverse the stacked offd columns.
        keys, ext_col = np.unique(
            ent_rank[off] * ncols + cols[off], return_inverse=True
        )
        ext_bounds = np.searchsorted(keys, np.arange(nranks + 1) * ncols)
        self._col_maps = [
            keys[ext_bounds[r] : ext_bounds[r + 1]] - r * ncols
            for r in range(nranks)
        ]
        self.O = sparse.csr_matrix(
            (A.data[off], ext_col, A.indptr - d_indptr),
            shape=(n, keys.size),
        )
        # Rank r's values are D.data[d_bounds[r]:d_bounds[r+1]] (O alike).
        self._d_bounds = self.D.indptr[ro].astype(np.int64)
        self._o_bounds = self.O.indptr[ro].astype(np.int64)

        # Per-rank work of one SpMV, precomputed for SimWorld.charge: the
        # synchronous round, and its diag / offd legs on the overlap
        # path, priced so the legs sum exactly to the round.
        nnz_d, nnz_o = np.diff(self._d_bounds), np.diff(self._o_bounds)
        nnz, nrows = nnz_d + nnz_o, np.diff(ro)
        self._rank_nnz: list[int] = nnz.tolist()
        nbytes, diag_nbytes = spmv_bytes(nnz, nrows), spmv_bytes(nnz_d, nrows)
        has_offd = np.flatnonzero(nnz_o)
        self._spmv_work = (
            (2.0 * nnz).tolist(),
            nbytes.tolist(),
            np.where(nnz_o > 0, 2, 1).tolist(),
        )
        self._diag_work = ((2.0 * nnz_d).tolist(), diag_nbytes.tolist())
        self._offd_work = (
            (2.0 * nnz_o[has_offd]).tolist(),
            (nbytes - diag_nbytes)[has_offd].tolist(),
            1,
            has_offd.tolist(),
        )

    @cached_property
    def blocks(self) -> list[RankBlocks]:
        """Per-rank ``diag``/``offd`` CSRs (local column ids) and
        ``col_map_offd``; their ``data`` are views of ``D.data`` /
        ``O.data``, so value updates reach both forms."""
        ro, co = self.row_offsets, self.col_offsets
        eb = self.pattern.ext_bounds
        return [
            RankBlocks(
                diag=_row_block(
                    self.D, ro[r], ro[r + 1], co[r], co[r + 1] - co[r]
                ),
                offd=_row_block(
                    self.O, ro[r], ro[r + 1], eb[r], eb[r + 1] - eb[r]
                ),
                col_map_offd=self._col_maps[r],
            )
            for r in range(self.world.size)
        ]

    def _record_storage(self) -> None:
        """Account device memory for the per-rank matrix storage."""
        nnz, nrows = np.array(self._rank_nnz), np.diff(self.row_offsets)
        n_ext = np.diff(self.pattern.ext_bounds)
        self._storage_per_rank: list[float] = (
            12.0 * nnz + 8.0 * nrows + 8.0 * n_ext
        ).tolist()
        self._released = False
        self.world.charge_alloc(self._storage_per_rank)

    def release(self) -> None:
        """Return the matrix's device storage to the allocator model.

        Called when a replacement matrix is assembled (every Picard
        iteration) or a hierarchy is rebuilt; idempotent.
        """
        if self._released:
            return
        self._released = True
        self.world.charge_alloc([-b for b in self._storage_per_rank])

    def rebind_world(self, world: SimWorld) -> None:
        """Re-home the matrix on a different world (cross-job plan reuse).

        A campaign job adopting a prior job's captured
        :class:`~repro.assembly.plan.AssemblyPlan` inherits the plan's
        live operator; its storage is returned to the donor world's
        allocator model and re-recorded on the adopter's.  Numerics are
        untouched — subsequent value-only updates behave exactly as on
        the donor world.
        """
        if world is self.world:
            return
        self.release()
        self.world = world
        self._released = False
        world.charge_alloc(self._storage_per_rank)

    # -- value-only updates (pattern frozen) ---------------------------------------

    def update_rank_values(self, rank: int, values: np.ndarray) -> None:
        """Overwrite one rank's row values in place (pattern frozen).

        ``values`` must be the rank's unique row entries in row-major,
        column-ascending order — exactly the Algorithm-1 reduce output.
        The global CSR and the rank's part of ``D``/``O`` (hence its
        diag/offd blocks) are updated without touching indices,
        ``col_map_offd``, the exchange pattern, or the storage accounting.
        """
        s, e = self._ent_bounds[rank], self._ent_bounds[rank + 1]
        if values.size != e - s:
            raise ValueError(
                f"rank {rank} expects {e - s} values, got {values.size}"
            )
        self.A.data[s:e] = values
        mask = self._diag_mask[s:e]
        d, o = self._d_bounds, self._o_bounds
        self.D.data[d[rank] : d[rank + 1]] = values[mask]
        self.O.data[o[rank] : o[rank + 1]] = values[~mask]

    def refresh_values(self, A_new: sparse.spmatrix) -> None:
        """Numeric refresh of the whole operator from an equal-pattern CSR.

        Used by :meth:`~repro.amg.hierarchy.AMGHierarchy.refresh` to push
        recomputed Galerkin values into an existing level operator
        without rebuilding blocks or communication structure.
        """
        A_new = sparse.csr_matrix(A_new)
        A_new.sort_indices()
        if (
            A_new.shape != self.A.shape
            or A_new.nnz != self.A.nnz
            or not np.array_equal(A_new.indptr, self.A.indptr)
            or not np.array_equal(A_new.indices, self.A.indices)
        ):
            raise SparsityPatternError(
                "refresh_values requires an identical sparsity pattern"
            )
        self.A.data[:] = A_new.data
        self.D.data[:] = A_new.data[self._diag_mask]
        self.O.data[:] = A_new.data[~self._diag_mask]

    # -- properties ----------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """Global matrix shape."""
        return self.A.shape

    @property
    def nnz(self) -> int:
        """Global nonzero count."""
        return self.A.nnz

    def local_nnz(self, rank: int) -> int:
        """Nonzeros stored by one rank."""
        return self._rank_nnz[rank]

    def offd_fraction(self) -> float:
        """Fraction of entries in offd blocks (grows in the strong-scaling
        limit — the effect paper §5.3 discusses)."""
        return self.O.nnz / max(self.nnz, 1)

    # -- distributed kernels -----------------------------------------------------------

    def matvec(
        self,
        x: ParVector,
        y: ParVector | None = None,
        overlap: bool = False,
    ) -> ParVector:
        """Distributed ``y = A @ x`` with per-rank roofline accounting.

        One halo round and two SpMVs: ``D @ x`` against owned data,
        ``O @ ext`` against the round's external buffer.  With
        ``overlap=True`` the halo exchange is split: sends are posted,
        ``D @ x`` runs while boundary data is in flight, and the ``O``
        contributions are added on arrival.  The floating-point
        operations and their order are identical to the synchronous
        path (and to each rank doing ``yl = diag @ xl`` then ``yl +=
        offd @ ext``), so the result is **bitwise identical**; only the
        communication schedule — and therefore the priced halo wait —
        changes.
        """
        if x.n != self.shape[1]:
            raise ValueError("x size does not match matrix cols")
        world = self.world
        if overlap:
            with overlapped_halo(world, self.pattern, x.data, out=self._ext):
                # Interior SpMV against owned data while halos are in flight.
                interior = self.D @ x.data
                world.charge("spmv", *self._diag_work)
            work = self._offd_work
        else:
            exchange_halo(world, self.pattern, x.data, out=self._ext)
            interior = self.D @ x.data
            work = self._spmv_work
        result = np.add(
            interior, self.O @ self._ext, out=None if y is None else y.data
        )
        world.charge("spmv", *work)
        return ParVector(world, self.row_offsets, result) if y is None else y

    def residual(
        self, b: ParVector, x: ParVector, overlap: bool = False
    ) -> ParVector:
        """``r = b - A x`` (one SpMV + one axpy-like update)."""
        r = self.matvec(x, overlap=overlap)
        r.data *= -1.0
        r.data += b.data
        r._record_local("axpby", 2.0, 3)
        return r

    # -- views used by smoothers ------------------------------------------------------

    def block_diagonal(self) -> sparse.csr_matrix:
        """Global matrix keeping only within-rank couplings (a copy of
        the stacked ``D``).

        This is the operator a *hybrid* (process-local) relaxation actually
        applies (paper §4.2): each rank relaxes its diag block only.
        """
        return self.D.copy()

    def diagonal(self) -> np.ndarray:
        """Global main diagonal."""
        return self.A.diagonal()

    def new_vector(self, data: np.ndarray | None = None) -> ParVector:
        """Vector on this matrix's row distribution."""
        return ParVector(self.world, self.row_offsets, data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParCSRMatrix({self.name!r}, shape={self.shape}, nnz={self.nnz}, "
            f"ranks={self.world.size})"
        )
