"""Sparse matrix-matrix products with hash-SpGEMM cost accounting.

AMG setup is dominated by sparse M-M multiplications: the MM-ext family of
interpolation operators and the Galerkin triple products are all built from
them (paper §4.1).  The paper found cuSPARSE's SpGEMM inadequate and used
hypre's hash-based implementation; we execute the products with SciPy and
record the hash-SpGEMM cost model (one pass to count, one to fill; work
proportional to the number of scalar products).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.comm.simcomm import SimWorld


def spgemm_products(A: sparse.csr_matrix, B: sparse.csr_matrix) -> int:
    """Number of scalar multiply-adds a row-by-row SpGEMM performs."""
    b_row_nnz = np.diff(B.indptr)
    return int(b_row_nnz[A.indices].sum())


def _products_per_row(
    A: sparse.csr_matrix, B: sparse.csr_matrix
) -> np.ndarray:
    """Multiply-adds per row of ``A @ B``: the B-row sizes summed over the
    row's columns.  Host-side bookkeeping; integer-valued, so exact in
    any summation order."""
    contrib = np.diff(B.indptr)[A.indices].astype(np.float64)
    row_idx = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    return np.bincount(row_idx, weights=contrib, minlength=A.shape[0])


def record_spgemm(
    world: SimWorld,
    A: sparse.csr_matrix,
    B: sparse.csr_matrix,
    C: sparse.csr_matrix,
    row_offsets: np.ndarray,
    kernel: str = "spgemm",
) -> None:
    """Record per-rank hash-SpGEMM work for ``C = A @ B``.

    Work is attributed to the rank owning each row of ``A`` under
    ``row_offsets``; each rank performs symbolic + numeric passes over its
    rows' products and writes its slice of ``C``.
    """
    prod_per_row = _products_per_row(A, B)

    c_row_nnz = np.diff(C.indptr)
    for r in range(world.size):
        lo, hi = row_offsets[r], row_offsets[r + 1]
        prods = float(prod_per_row[lo:hi].sum())
        out_nnz = float(c_row_nnz[lo:hi].sum())
        in_nnz = float(np.diff(A.indptr)[lo:hi].sum())
        world.charge(
            kernel,
            2.0 * prods,
            # symbolic + numeric passes: read A rows and the touched B rows,
            # hash-table traffic ~ products, write C rows.
            2.0 * (12.0 * in_nnz + 16.0 * prods) + 12.0 * out_nnz,
            launches=2,
            ranks=[r],
        )


def spgemm(
    world: SimWorld,
    A: sparse.csr_matrix,
    B: sparse.csr_matrix,
    row_offsets: np.ndarray,
    kernel: str = "spgemm",
) -> sparse.csr_matrix:
    """Compute and record ``C = A @ B`` (CSR in, CSR out)."""
    C = (A @ B).tocsr()
    C.sum_duplicates()
    record_spgemm(world, A, B, C, row_offsets, kernel)
    return C


def record_spgemm_numeric(
    world: SimWorld,
    A: sparse.csr_matrix,
    B: sparse.csr_matrix,
    C: sparse.csr_matrix,
    row_offsets: np.ndarray,
    kernel: str = "spgemm_numeric",
) -> None:
    """Record a *numeric-only* hash-SpGEMM pass for ``C = A @ B``.

    When the output sparsity of ``C`` is already known (a pattern-frozen
    Galerkin refresh), hash-SpGEMM skips the symbolic counting pass and
    runs a single numeric fill — half the passes, one launch.
    """
    prod_per_row = _products_per_row(A, B)

    c_row_nnz = np.diff(C.indptr)
    for r in range(world.size):
        lo, hi = row_offsets[r], row_offsets[r + 1]
        prods = float(prod_per_row[lo:hi].sum())
        out_nnz = float(c_row_nnz[lo:hi].sum())
        in_nnz = float(np.diff(A.indptr)[lo:hi].sum())
        world.charge(
            kernel,
            2.0 * prods,
            # single numeric pass: read A rows and touched B rows once,
            # hash traffic ~ products, write C values.
            12.0 * in_nnz + 16.0 * prods + 12.0 * out_nnz,
            ranks=[r],
        )


def spgemm_numeric(
    world: SimWorld,
    A: sparse.csr_matrix,
    B: sparse.csr_matrix,
    row_offsets: np.ndarray,
    kernel: str = "spgemm_numeric",
) -> sparse.csr_matrix:
    """``C = A @ B`` costed as a numeric-only pass on a known pattern."""
    C = (A @ B).tocsr()
    C.sum_duplicates()
    C.sort_indices()
    record_spgemm_numeric(world, A, B, C, row_offsets, kernel)
    return C


def galerkin_refresh(
    world: SimWorld,
    R: sparse.csr_matrix,
    A: sparse.csr_matrix,
    P: sparse.csr_matrix,
    fine_offsets: np.ndarray,
    coarse_offsets: np.ndarray,
) -> sparse.csr_matrix:
    """Numeric-only Galerkin triple product on frozen R/A/P patterns.

    Same two-product structure as :func:`galerkin_product`, but each
    SpGEMM is costed as a single numeric fill because the output
    sparsities were cached by the original setup.
    """
    AP = spgemm_numeric(world, A, P, fine_offsets, kernel="rap_ap_numeric")
    return spgemm_numeric(
        world, R.tocsr(), AP, coarse_offsets, kernel="rap_rap_numeric"
    )


def galerkin_product(
    world: SimWorld,
    R: sparse.csr_matrix,
    A: sparse.csr_matrix,
    P: sparse.csr_matrix,
    fine_offsets: np.ndarray,
    coarse_offsets: np.ndarray,
) -> sparse.csr_matrix:
    """Galerkin triple product ``A_c = R A P`` with per-stage accounting.

    hypre performs the triple product as two SpGEMMs (``AP`` then ``R(AP)``);
    we do the same so the recorded setup cost has the right structure.
    """
    AP = spgemm(world, A, P, fine_offsets, kernel="rap_ap")
    # R's rows are coarse: attribute the second product to coarse owners.
    Ac = spgemm(world, R.tocsr(), AP, coarse_offsets, kernel="rap_rap")
    return Ac
