"""Sparse matrix-matrix products with hash-SpGEMM cost accounting.

AMG setup is dominated by sparse M-M multiplications: the MM-ext family of
interpolation operators and the Galerkin triple products are all built from
them (paper §4.1).  The paper found cuSPARSE's SpGEMM inadequate and used
hypre's hash-based implementation; we execute the products with SciPy and
record the hash-SpGEMM cost model (one pass to count, one to fill; work
proportional to the number of scalar products).

A set-up product is *structural*: its pattern is the pattern of
``|A| @ |B|``, entries that cancel to exactly 0 included (SciPy's ``@``
omits those).  The pattern of a coarse operator, and every count charged
for it, is then a function of the operand patterns alone, and a later
numeric refresh (:func:`galerkin_refresh`) writes new values into that
pattern whatever they are.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.comm.simcomm import SimWorld
from repro.linalg.parcsr import SparsityPatternError

#: The charge of one later numeric-only pass over a set-up product:
#: ``(kernel, flops per rank, bytes per rank)``.
NumericWork = tuple[str, list[float], list[float]]


def spgemm_products(A: sparse.csr_matrix, B: sparse.csr_matrix) -> int:
    """Number of scalar multiply-adds a row-by-row SpGEMM performs."""
    b_row_nnz = np.diff(B.indptr)
    return int(b_row_nnz[A.indices].sum())


def record_spgemm(
    world: SimWorld,
    A: sparse.csr_matrix,
    B: sparse.csr_matrix,
    C: sparse.csr_matrix,
    row_offsets: np.ndarray,
    kernel: str = "spgemm",
) -> NumericWork:
    """Record per-rank hash-SpGEMM work for ``C = A @ B``.

    Work is attributed to the rank owning each row of ``A`` under
    ``row_offsets``; each rank performs symbolic + numeric passes over its
    rows' products and writes its slice of ``C``.  Returns what a later
    numeric-only pass into ``C``'s pattern charges as ``<kernel>_numeric``:
    the output sparsity is known, so hash-SpGEMM skips the symbolic
    counting pass and runs a single numeric fill — half the passes, one
    launch.
    """
    # Per-rank products, nnz of A and nnz of C: integer counts held as
    # floats, so exact in any summation order.
    cum = np.concatenate(([0], np.cumsum(np.diff(B.indptr)[A.indices])))
    prods = np.diff(cum[A.indptr[row_offsets]]).astype(np.float64)
    in_nnz = np.diff(A.indptr[row_offsets]).astype(np.float64)
    out_nnz = np.diff(C.indptr[row_offsets]).astype(np.float64)
    flops = (2.0 * prods).tolist()
    # One pass reads A rows and the touched B rows, with hash-table
    # traffic ~ products; the numeric pass also writes C rows.
    one_pass = 12.0 * in_nnz + 16.0 * prods
    world.charge(
        kernel, flops, (2.0 * one_pass + 12.0 * out_nnz).tolist(), launches=2
    )
    return f"{kernel}_numeric", flops, (one_pass + 12.0 * out_nnz).tolist()


def _pattern(A: sparse.csr_matrix) -> sparse.csr_matrix:
    """``A`` with every stored entry replaced by ``True`` (boolean sums
    saturate, so a product of patterns drops nothing), sharing ``A``'s
    index arrays."""
    return sparse.csr_matrix(
        (np.ones(A.nnz, dtype=np.bool_), A.indices, A.indptr), shape=A.shape
    )


def values_on_pattern(
    pattern: sparse.csr_matrix, C: sparse.csr_matrix
) -> np.ndarray:
    """``C``'s values laid out on the entries of ``pattern``, zero where
    ``C`` stores none.  Both in canonical CSR order.

    Copies straight across when the entry counts agree; when ``C`` has
    fewer, its entries shift by the entries missing before them, and only
    the rows that miss some are searched.  An entry of ``C`` outside
    ``pattern`` raises :class:`~repro.linalg.parcsr.SparsityPatternError`.
    """
    if C.shape != pattern.shape:
        raise SparsityPatternError(
            f"shape {C.shape} does not fit the pattern's {pattern.shape}"
        )
    outside = SparsityPatternError(
        "values fall outside the stored sparsity pattern"
    )
    missing = np.diff(pattern.indptr) - np.diff(C.indptr)
    if not missing.any():
        if not np.array_equal(C.indices, pattern.indices):
            raise outside
        return C.data
    rows = np.repeat(np.arange(C.shape[0]), np.diff(C.indptr))
    at = np.arange(C.nnz) + (np.cumsum(missing) - missing)[rows]
    for i in np.flatnonzero(missing):
        lo, hi = C.indptr[i], C.indptr[i + 1]
        p_lo, p_hi = pattern.indptr[i], pattern.indptr[i + 1]
        at[lo:hi] = p_lo + np.searchsorted(
            pattern.indices[p_lo:p_hi], C.indices[lo:hi]
        )
    if np.any(at >= pattern.indptr[rows + 1]) or not np.array_equal(
        pattern.indices[at], C.indices
    ):
        raise outside
    data = np.zeros(pattern.nnz)
    data[at] = C.data
    return data


def structural_product(
    A: sparse.csr_matrix, B: sparse.csr_matrix
) -> sparse.csr_matrix:
    """``A @ B`` in canonical CSR on its structural pattern."""
    C = (A @ B).tocsr()
    C.sort_indices()
    S = _pattern(A) @ _pattern(B)
    if S.nnz != C.nnz:
        # Some entries cancelled to exactly 0: keep them, as zeros.
        S.sort_indices()
        C = sparse.csr_matrix(
            (values_on_pattern(S, C), S.indices, S.indptr), shape=S.shape
        )
    return C


def spgemm(
    world: SimWorld,
    A: sparse.csr_matrix,
    B: sparse.csr_matrix,
    row_offsets: np.ndarray,
    kernel: str = "spgemm",
) -> sparse.csr_matrix:
    """Compute and record the structural ``C = A @ B`` (CSR in, CSR out)."""
    C = structural_product(A, B)
    record_spgemm(world, A, B, C, row_offsets, kernel)
    return C


def galerkin_product(
    world: SimWorld,
    R: sparse.csr_matrix,
    A: sparse.csr_matrix,
    P: sparse.csr_matrix,
    fine_offsets: np.ndarray,
    coarse_offsets: np.ndarray,
) -> tuple[sparse.csr_matrix, list[NumericWork]]:
    """Galerkin triple product ``A_c = R A P`` with per-stage accounting.

    hypre performs the triple product as two SpGEMMs (``AP`` then ``R(AP)``);
    we do the same so the recorded setup cost has the right structure.
    Returns ``A_c`` and what :func:`galerkin_refresh` charges for redoing
    both products on new values.
    """
    R = R.tocsr()
    AP = structural_product(A, P)
    ap_work = record_spgemm(world, A, P, AP, fine_offsets, "rap_ap")
    Ac = structural_product(R, AP)
    # R's rows are coarse: attribute the second product to coarse owners.
    rap_work = record_spgemm(world, R, AP, Ac, coarse_offsets, "rap_rap")
    return Ac, [ap_work, rap_work]


def galerkin_refresh(
    world: SimWorld,
    R: sparse.csr_matrix,
    A: sparse.csr_matrix,
    P: sparse.csr_matrix,
    Ac: sparse.csr_matrix,
    work: list[NumericWork],
) -> sparse.csr_matrix:
    """Numeric-only Galerkin triple product into ``Ac``'s pattern.

    ``Ac`` and ``work`` are what :func:`galerkin_product` returned for the
    same ``R``/``A``/``P`` patterns.  The values are those of ``R @ (A @
    P)``; they cannot fall outside ``Ac``'s structural pattern, and the
    two numeric passes charge what the set-up counted, whichever entries
    cancel this time.  The result shares ``Ac``'s index arrays.
    """
    RAP = (R.tocsr() @ (A @ P)).tocsr()
    RAP.sort_indices()
    for kernel, flops, nbytes in work:
        world.charge(kernel, flops, nbytes)
    return sparse.csr_matrix(
        (values_on_pattern(Ac, RAP), Ac.indices, Ac.indptr), shape=Ac.shape
    )
