"""Sparse matrix-matrix products with hash-SpGEMM cost accounting.

AMG setup is dominated by sparse M-M multiplications: the MM-ext family of
interpolation operators and the Galerkin triple products are all built from
them (paper §4.1).  The paper found cuSPARSE's SpGEMM inadequate and used
hypre's hash-based implementation; we execute the products with SciPy and
record the hash-SpGEMM cost model (one pass to count, one to fill; work
proportional to the number of scalar products).

The host runs the same two passes: :func:`product_nnz` is SciPy's count
pass and :func:`numeric_product` its fill pass, the two compiled kernels
``A @ B`` calls, so their results are those of ``A @ B`` bit for bit.  This
module is the only user of the private ``scipy.sparse._sparsetools``;
``tests/test_linalg.py`` holds the kernels to ``A @ B``.

A set-up product is *structural*: its pattern is the pattern of
``|A| @ |B|``, entries that cancel to exactly 0 included (SciPy's ``@``
omits those).  The pattern of a coarse operator, and every count charged
for it, is then a function of the operand patterns alone, and a later
numeric refresh (:func:`galerkin_refresh`) writes new values into that
pattern whatever they are, with the fill pass only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_matmat, csr_matmat_maxnnz

from repro.comm.simcomm import SimWorld
from repro.linalg.parcsr import SparsityPatternError, index_dtype

#: The charge of one later numeric-only pass over a set-up product:
#: ``(kernel, flops per rank, bytes per rank)``.
NumericWork = tuple[str, list[float], list[float]]


@dataclass
class RefreshWork:
    """What a numeric-only refresh of one Galerkin product needs.

    ``kernels`` is what each of its two passes charges; ``ap_nnz`` the
    structural entry count of ``A @ P``, which sizes the refresh's ``A @
    P`` buffers; ``operands`` the set-up's ``R``, ``A``, ``P`` index
    arrays, so that a refresh on another pattern, which would overflow
    those buffers, is refused.  ``order`` is captured by the first
    refresh: the permutation from SciPy's output order of ``R @ (A @ P)``
    to the coarse operator's canonical order.
    """

    kernels: list[NumericWork]
    ap_nnz: int
    operands: list[tuple[np.ndarray, np.ndarray]]
    order: np.ndarray | None = None

    def check(self, *operands: sparse.csr_matrix) -> None:
        """Raise :class:`~repro.linalg.parcsr.SparsityPatternError` unless
        ``R``, ``A``, ``P`` have the set-up's patterns (index arrays in
        the same order); equal arrays of another object are adopted, so
        the next check of the same operand is by identity."""
        for k, (M, (indptr, indices)) in enumerate(
            zip(operands, self.operands)
        ):
            if M.indptr is indptr and M.indices is indices:
                continue
            if not (
                np.array_equal(M.indptr, indptr)
                and np.array_equal(M.indices, indices)
            ):
                raise SparsityPatternError(
                    "a Galerkin refresh needs the set-up's operand patterns"
                )
            self.operands[k] = (M.indptr, M.indices)


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


def _index_arrays(
    A: sparse.csr_matrix, B: sparse.csr_matrix, maxval: int | None = None
) -> list[np.ndarray]:
    """The operands' index arrays in the dtype ``A @ B`` runs its kernels
    in (``scipy.sparse._compressed._matmul_sparse``'s rule)."""
    if A.format != "csr" or B.format != "csr":
        raise TypeError("the SpGEMM kernels take CSR operands only")
    arrays = (A.indptr, A.indices, B.indptr, B.indices)
    idx = sparse.get_index_dtype(arrays, maxval=maxval)
    return [np.asarray(a, dtype=idx) for a in arrays]


def product_nnz(A: sparse.csr_matrix, B: sparse.csr_matrix) -> int:
    """Structural entry count of ``A @ B``: SciPy's symbolic pass."""
    return int(
        csr_matmat_maxnnz(A.shape[0], B.shape[1], *_index_arrays(A, B))
    )


def numeric_product(
    A: sparse.csr_matrix, B: sparse.csr_matrix, nnz: int
) -> sparse.csr_matrix:
    """``A @ B`` filled into buffers of ``nnz`` entries: SciPy's numeric
    pass, entries in its output order (not sorted), those that cancel to
    exactly 0 omitted, so it may store fewer than ``nnz``.

    ``nnz`` must be at least :func:`product_nnz` of the operands: the
    kernel writes past a smaller buffer.
    """
    Ap, Aj, Bp, Bj = _index_arrays(A, B, maxval=nnz)
    m = A.shape[0]
    indptr = np.empty(m + 1, dtype=Ap.dtype)
    indices = np.empty(nnz, dtype=Ap.dtype)
    data = np.empty(nnz, dtype=np.result_type(A.dtype, B.dtype))
    csr_matmat(
        m, B.shape[1], Ap, Aj, A.data, Bp, Bj, B.data, indptr, indices, data
    )
    stored = indptr[-1]
    return sparse.csr_matrix(
        (data[:stored], indices[:stored], indptr), shape=(m, B.shape[1])
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
    A: sparse.csr_matrix, B: sparse.csr_matrix, sort: bool = True
) -> sparse.csr_matrix:
    """``A @ B`` on its structural pattern: one symbolic and one numeric
    pass, in canonical CSR order.

    The pattern product runs only when an entry cancelled.  With
    ``sort=False`` a product nothing cancelled in stays in SciPy's output
    order: enough for an operand of a further product, whose values do
    not depend on the order within a row of its right operand.
    """
    nnz = product_nnz(A, B)
    C = numeric_product(A, B, nnz)
    if C.nnz != nnz:
        # Some entries cancelled to exactly 0: keep them, as zeros.
        S = numeric_product(_pattern(A), _pattern(B), nnz)
        S.sort_indices()
        C.sort_indices()
        C = sparse.csr_matrix(
            (values_on_pattern(S, C), S.indices, S.indptr), shape=S.shape
        )
    elif sort:
        C.sort_indices()
    return C


def spgemm(
    world: SimWorld,
    A: sparse.csr_matrix,
    B: sparse.csr_matrix,
    row_offsets: np.ndarray,
    kernel: str = "spgemm",
    sort: bool = True,
) -> sparse.csr_matrix:
    """Compute and record the structural ``C = A @ B`` (CSR in, CSR out;
    ``sort`` as for :func:`structural_product`)."""
    C = structural_product(A, B, sort)
    record_spgemm(world, A, B, C, row_offsets, kernel)
    return C


def galerkin_product(
    world: SimWorld,
    R: sparse.csr_matrix,
    A: sparse.csr_matrix,
    P: sparse.csr_matrix,
    fine_offsets: np.ndarray,
    coarse_offsets: np.ndarray,
) -> tuple[sparse.csr_matrix, RefreshWork]:
    """Galerkin triple product ``A_c = R A P`` with per-stage accounting.

    hypre performs the triple product as two SpGEMMs (``AP`` then ``R(AP)``);
    we do the same so the recorded setup cost has the right structure.
    Returns ``A_c`` and what :func:`galerkin_refresh` needs to redo both
    products on new values.
    """
    R = R.tocsr()
    AP = structural_product(A, P, sort=False)
    ap_work = record_spgemm(world, A, P, AP, fine_offsets, "rap_ap")
    Ac = structural_product(R, AP)
    # R's rows are coarse: attribute the second product to coarse owners.
    rap_work = record_spgemm(world, R, AP, Ac, coarse_offsets, "rap_rap")
    operands = [(M.indptr, M.indices) for M in (R, A, P)]
    return Ac, RefreshWork([ap_work, rap_work], AP.nnz, operands)


def _on_pattern(
    Ac: sparse.csr_matrix, RAP: sparse.csr_matrix, work: RefreshWork
) -> np.ndarray:
    """``RAP``'s values (SciPy's output order) laid on ``Ac``'s entries.

    Through ``work.order`` when it still maps ``RAP`` onto ``Ac`` (the
    same entry count in every row, the same columns once permuted), by a
    sort and :func:`values_on_pattern` otherwise: an entry cancelled, or
    a cancellation in ``A @ P`` moved SciPy's output order.
    """
    same_rows = np.array_equal(RAP.indptr, Ac.indptr)
    if work.order is None and same_rows:
        rows = np.repeat(
            np.arange(Ac.shape[0], dtype=np.int64), np.diff(RAP.indptr)
        )
        key = rows * Ac.shape[1] + RAP.indices
        work.order = np.argsort(key, kind="stable").astype(
            index_dtype(Ac.nnz)
        )
    order = work.order
    if same_rows and np.array_equal(RAP.indices[order], Ac.indices):
        return RAP.data[order]
    RAP.sort_indices()
    return values_on_pattern(Ac, RAP)


def galerkin_refresh(
    world: SimWorld,
    R: sparse.csr_matrix,
    A: sparse.csr_matrix,
    P: sparse.csr_matrix,
    Ac: sparse.csr_matrix,
    work: RefreshWork,
) -> sparse.csr_matrix:
    """Numeric-only Galerkin triple product into ``Ac``'s pattern.

    ``Ac`` and ``work`` are what :func:`galerkin_product` returned for the
    same ``R``/``A``/``P`` patterns (else
    :class:`~repro.linalg.parcsr.SparsityPatternError`).  Two numeric
    passes, into buffers sized by the set-up's structural counts; the
    values are those of ``R @ (A @ P)``.  They cannot fall outside
    ``Ac``'s structural pattern, and the two passes charge what the
    set-up counted, whichever entries cancel this time.  The result
    shares ``Ac``'s index arrays.
    """
    R = R.tocsr()
    work.check(R, A, P)
    RAP = numeric_product(R, numeric_product(A, P, work.ap_nnz), Ac.nnz)
    for kernel, flops, nbytes in work.kernels:
        world.charge(kernel, flops, nbytes)
    return sparse.csr_matrix(
        (_on_pattern(Ac, RAP, work), Ac.indices, Ac.indptr), shape=Ac.shape
    )
