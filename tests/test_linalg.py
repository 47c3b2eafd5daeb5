"""Tests for ParCSR matrices, ParVectors, and SpGEMM accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.comm import SimWorld
from repro.linalg import (
    ParCSRMatrix,
    ParVector,
    galerkin_product,
    spgemm,
    spgemm_products,
    spmv_bytes,
)
from repro.linalg.parcsr import SparsityPatternError
from repro.linalg.spgemm import (
    galerkin_refresh,
    numeric_product,
    product_nnz,
    structural_product,
    values_on_pattern,
)


def random_system(n=120, nranks=4, density=0.05, seed=0):
    rng = np.random.default_rng(seed)
    A = sparse.random(n, n, density=density, random_state=seed, format="csr")
    A = A + sparse.eye(n)
    w = SimWorld(nranks)
    offs = np.linspace(0, n, nranks + 1).astype(np.int64)
    return w, ParCSRMatrix(w, A.tocsr(), offs), rng


class TestParVector:
    def test_local_views_are_zero_copy(self):
        w = SimWorld(3)
        offs = np.array([0, 2, 4, 6])
        v = ParVector(w, offs, np.arange(6.0))
        v.local(1)[0] = 99.0
        assert v.data[2] == 99.0

    def test_dot_matches_numpy_and_records_allreduce(self):
        w = SimWorld(4)
        offs = np.array([0, 3, 6, 9, 12])
        rng = np.random.default_rng(0)
        x = ParVector(w, offs, rng.standard_normal(12))
        y = ParVector(w, offs, rng.standard_normal(12))
        before = w.traffic.collective_count()
        d = x.dot(y)
        assert d == pytest.approx(x.data @ y.data)
        assert w.traffic.collective_count() == before + 1

    def test_norm(self):
        w = SimWorld(2)
        v = ParVector(w, np.array([0, 2, 4]), np.array([3.0, 0, 0, 4.0]))
        assert v.norm() == pytest.approx(5.0)

    def test_axpy_and_scale_inplace(self):
        w = SimWorld(2)
        offs = np.array([0, 2, 4])
        x = ParVector(w, offs, np.ones(4))
        y = ParVector(w, offs, np.full(4, 2.0))
        x.axpy(3.0, y)
        assert np.allclose(x.data, 7.0)
        x.scale(0.5)
        assert np.allclose(x.data, 3.5)

    def test_shape_mismatch_rejected(self):
        w = SimWorld(2)
        with pytest.raises(ValueError):
            ParVector(w, np.array([0, 2, 4]), np.zeros(3))


class TestParCSR:
    def test_matvec_matches_global(self):
        w, M, rng = random_system()
        x = M.new_vector(rng.standard_normal(M.shape[1]))
        y = M.matvec(x)
        assert np.allclose(y.data, M.A @ x.data)

    def test_residual(self):
        w, M, rng = random_system(seed=3)
        x = M.new_vector(rng.standard_normal(M.shape[0]))
        b = M.new_vector(rng.standard_normal(M.shape[0]))
        r = M.residual(b, x)
        assert np.allclose(r.data, b.data - M.A @ x.data)

    def test_diag_offd_partition_of_nnz(self):
        _w, M, _ = random_system()
        total = sum(b.diag.nnz + b.offd.nnz for b in M.blocks)
        assert total == M.nnz

    def test_col_map_offd_sorted_unique_external(self):
        _w, M, _ = random_system()
        for r, b in enumerate(M.blocks):
            cm = b.col_map_offd
            if cm.size:
                assert np.all(np.diff(cm) > 0)
                lo, hi = M.col_offsets[r], M.col_offsets[r + 1]
                assert np.all((cm < lo) | (cm >= hi))

    def test_offd_fraction_grows_with_ranks(self):
        n = 240
        A = sparse.random(n, n, density=0.03, random_state=1, format="csr") + sparse.eye(n)
        fr = []
        for nranks in (2, 8):
            w = SimWorld(nranks)
            offs = np.linspace(0, n, nranks + 1).astype(np.int64)
            fr.append(ParCSRMatrix(w, A.tocsr(), offs).offd_fraction())
        assert fr[1] > fr[0]

    def test_block_diagonal_keeps_only_within_rank(self):
        _w, M, _ = random_system()
        bd = M.block_diagonal()
        coo = bd.tocoo()
        ro = M.row_offsets
        rowner = np.searchsorted(ro, coo.row, side="right") - 1
        cowner = np.searchsorted(ro, coo.col, side="right") - 1
        assert np.all(rowner == cowner)

    def test_matvec_records_traffic_and_ops(self):
        w, M, rng = random_system()
        x = M.new_vector(rng.standard_normal(M.shape[1]))
        with w.phase_scope("spmv_test"):
            M.matvec(x)
        assert w.traffic.message_count("spmv_test") > 0
        assert w.ops.total("spmv_test").flops == pytest.approx(2.0 * M.nnz)

    def test_single_rank_no_messages(self):
        n = 50
        A = sparse.random(n, n, density=0.1, random_state=0, format="csr") + sparse.eye(n)
        w = SimWorld(1)
        M = ParCSRMatrix(w, A.tocsr(), np.array([0, n]))
        x = M.new_vector(np.ones(n))
        M.matvec(x)
        assert w.traffic.message_count() == 0

    def test_rectangular_matrix(self):
        w = SimWorld(2)
        P = sparse.random(10, 4, density=0.5, random_state=0, format="csr")
        M = ParCSRMatrix(
            w, P, row_offsets=np.array([0, 5, 10]), col_offsets=np.array([0, 2, 4])
        )
        x = ParVector(w, np.array([0, 2, 4]), np.arange(4.0))
        y = M.matvec(x)
        assert np.allclose(y.data, P @ x.data)

    def test_bad_offsets_rejected(self):
        w = SimWorld(2)
        A = sparse.eye(10).tocsr()
        with pytest.raises(ValueError):
            ParCSRMatrix(w, A, np.array([0, 5, 9]))

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(8, 80),
        nranks=st.integers(1, 6),
        seed=st.integers(0, 500),
    )
    def test_property_spmv_matches_global(self, n, nranks, seed):
        rng = np.random.default_rng(seed)
        A = sparse.random(
            n, n, density=0.15, random_state=seed, format="csr"
        ) + sparse.eye(n)
        w = SimWorld(nranks)
        # Random (possibly uneven) contiguous partition.
        cuts = np.sort(rng.integers(0, n + 1, nranks - 1)) if nranks > 1 else np.array([], dtype=int)
        offs = np.concatenate([[0], cuts, [n]]).astype(np.int64)
        M = ParCSRMatrix(w, A.tocsr(), offs)
        x = M.new_vector(rng.standard_normal(n))
        y = M.matvec(x)
        assert np.allclose(y.data, A @ x.data, atol=1e-10)


def reference_blocks(A, row_offsets, col_offsets):
    """Per-rank (diag, offd, col_map_offd), split the way hypre describes
    it: one rank's rows at a time, straight from the global matrix."""
    out = []
    for r in range(len(row_offsets) - 1):
        rlo, rhi = row_offsets[r], row_offsets[r + 1]
        clo, chi = col_offsets[r], col_offsets[r + 1]
        rows = sparse.csr_matrix(A)[rlo:rhi].tocoo()
        own = (rows.col >= clo) & (rows.col < chi)
        diag = sparse.csr_matrix(
            (rows.data[own], (rows.row[own], rows.col[own] - clo)),
            shape=(rhi - rlo, chi - clo),
        )
        col_map = np.unique(rows.col[~own])
        offd = sparse.csr_matrix(
            (
                rows.data[~own],
                (rows.row[~own], np.searchsorted(col_map, rows.col[~own])),
            ),
            shape=(rhi - rlo, col_map.size),
        )
        out.append((diag, offd, col_map))
    return out


def reference_matvec(blocks, row_offsets, col_offsets, xv):
    """``yl = diag @ xl`` then ``yl += offd @ ext`` on every rank."""
    y = np.zeros(row_offsets[-1])
    for r, (diag, offd, col_map) in enumerate(blocks):
        yl = diag @ xv[col_offsets[r] : col_offsets[r + 1]]
        if offd.nnz:
            yl += offd @ xv[col_map]
        y[row_offsets[r] : row_offsets[r + 1]] = yl
    return y


def record_reference_round(world, blocks, row_offsets, col_offsets, overlap):
    """What one matvec must add to the logs, one rank / message at a time."""
    for r, (_diag, _offd, col_map) in enumerate(blocks):
        owners = np.searchsorted(col_offsets, col_map, side="right") - 1
        for src in np.unique(owners):
            world.traffic.record_message(
                int(src), r, 8 * int((owners == src).sum()), world.phase
            )
    for r, (diag, offd, _cm) in enumerate(blocks):
        nrows = diag.shape[0]
        nnz = diag.nnz + offd.nnz
        if not overlap:
            world.ops.record(
                world.phase, r, "spmv", flops=2.0 * nnz,
                nbytes=spmv_bytes(nnz, nrows),
                launches=2 if offd.nnz else 1,
            )
            continue
        world.ops.record(
            world.phase, r, "spmv", flops=2.0 * diag.nnz,
            nbytes=spmv_bytes(diag.nnz, nrows), launches=1,
        )
        if offd.nnz:
            world.ops.record(
                world.phase, r, "spmv", flops=2.0 * offd.nnz,
                nbytes=spmv_bytes(nnz, nrows) - spmv_bytes(diag.nnz, nrows),
                launches=1,
            )


def log_snapshot(world):
    """Every tally and traffic aggregate a run is priced from."""
    ops, tr = world.ops, world.traffic
    as_tuple = lambda t: (t.flops, t.bytes, t.launches)  # noqa: E731
    return {
        "rank_tallies": {k: as_tuple(t) for k, t in ops._tallies.items()},
        "kernel_tallies": {
            k: as_tuple(t) for k, t in ops._kernel_tallies.items()
        },
        "messages": {ph: tr.message_count(ph) for ph in tr.phases()},
        "bytes": {ph: tr.message_bytes(ph) for ph in tr.phases()},
        "max_rank": {
            ph: (tr.max_rank_messages(ph), tr.max_rank_bytes(ph))
            for ph in tr.phases()
        },
        "rank_totals": tr.rank_totals(),
    }


@st.composite
def partitioned_operators(draw):
    """Random sparse operator x random block partition: square or
    rectangular, uneven cuts, ranks that own no rows or no columns."""
    nranks = draw(st.integers(1, 6))
    n = draw(st.integers(1, 48))
    square = draw(st.booleans())
    ncols = n if square else draw(st.integers(1, 48))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)

    def cuts(size):
        inner = np.sort(rng.integers(0, size + 1, nranks - 1))
        return np.concatenate([[0], inner, [size]]).astype(np.int64)

    row_offsets = cuts(n)
    col_offsets = row_offsets if square else cuts(ncols)
    A = sparse.random(
        n, ncols, density=draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])),
        random_state=seed, format="csr",
    )
    if draw(st.booleans()):
        # Block-diagonal only: every rank's offd is empty.
        owner_r = np.searchsorted(row_offsets, A.tocoo().row, side="right")
        owner_c = np.searchsorted(col_offsets, A.tocoo().col, side="right")
        coo = A.tocoo()
        keep = owner_r == owner_c
        A = sparse.csr_matrix(
            (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=A.shape
        )
    return nranks, A, row_offsets, col_offsets, rng.standard_normal(ncols)


class TestStackedParity:
    """The rank-stacked kernels against per-rank references the library
    did not compute: bitwise results, entry-for-entry accounting."""

    @settings(max_examples=60, deadline=None)
    @given(case=partitioned_operators(), overlap=st.booleans())
    def test_matvec_and_residual_match_per_rank_reference(self, case, overlap):
        nranks, A, ro, co, xv = case
        blocks = reference_blocks(A, ro, co)
        y_ref = reference_matvec(blocks, ro, co, xv)

        w = SimWorld(nranks)
        M = ParCSRMatrix(w, A, ro, co)
        for mine, (diag, offd, col_map) in zip(M.blocks, blocks):
            assert np.array_equal(mine.col_map_offd, col_map)
            for got, want in ((mine.diag, diag), (mine.offd, offd)):
                assert got.shape == want.shape
                assert np.array_equal(got.indptr, want.indptr)
                assert np.array_equal(got.indices, want.indices)
                assert np.array_equal(got.data, want.data)

        ref = SimWorld(nranks)
        x = ParVector(w, co, xv)
        with w.phase_scope("apply"), ref.phase_scope("apply"):
            y = M.matvec(x, overlap=overlap)
            record_reference_round(ref, blocks, ro, co, overlap)
        assert np.array_equal(y.data, y_ref)
        assert log_snapshot(w) == log_snapshot(ref)

        # Into a caller's vector, and the residual on top of it.
        out = M.new_vector(np.full(ro[-1], np.nan))
        assert M.matvec(x, y=out, overlap=overlap) is out
        assert np.array_equal(out.data, y_ref)
        bv = np.random.default_rng(1).standard_normal(ro[-1])
        res = M.residual(M.new_vector(bv), x, overlap=overlap)
        r_ref = y_ref.copy()
        r_ref *= -1.0
        r_ref += bv
        assert np.array_equal(res.data, r_ref)

    @settings(max_examples=25, deadline=None)
    @given(case=partitioned_operators())
    def test_sync_and_overlap_agree_on_every_total(self, case):
        nranks, A, ro, co, xv = case
        totals = []
        for overlap in (False, True):
            w = SimWorld(nranks)
            M = ParCSRMatrix(w, A, ro, co)
            M.matvec(ParVector(w, co, xv), overlap=overlap)
            t = w.ops.total()
            totals.append(
                (t.flops, t.bytes, t.launches, w.traffic.message_count(),
                 w.traffic.message_bytes())
            )
        assert totals[0] == totals[1]

    def test_rank_update_reaches_stacked_and_per_rank_storage(self):
        w, M, rng = random_system(n=60, nranks=4, density=0.2, seed=5)
        blocks = M.blocks  # built before the update: views, not copies
        before_D, before_O = M.D.data.copy(), M.O.data.copy()
        rank = 2
        s, e = M.A.indptr[M.row_offsets[rank]], M.A.indptr[M.row_offsets[rank + 1]]
        M.update_rank_values(rank, rng.standard_normal(e - s))

        assert np.shares_memory(blocks[rank].diag.data, M.D.data)
        assert np.shares_memory(blocks[rank].offd.data, M.O.data)
        assert not np.array_equal(M.D.data, before_D)
        assert not np.array_equal(M.O.data, before_O)
        want = reference_blocks(M.A, M.row_offsets, M.col_offsets)
        for mine, (diag, offd, _cm) in zip(blocks, want):
            assert np.array_equal(mine.diag.data, diag.data)
            assert np.array_equal(mine.offd.data, offd.data)
        # Other ranks' values are untouched, and the kernels see the update.
        lo = M.D.indptr[M.row_offsets[rank]]
        assert np.array_equal(M.D.data[:lo], before_D[:lo])
        xv = rng.standard_normal(M.shape[1])
        assert np.array_equal(
            M.matvec(M.new_vector(xv)).data,
            reference_matvec(want, M.row_offsets, M.col_offsets, xv),
        )


class TestRefreshValues:
    def _tridiag(self, n=8):
        return sparse.diags(
            [-1.0, 2.0, -1.0], [-1, 0, 1], (n, n), format="csr"
        )

    @pytest.mark.parametrize("move_to", [(0, 5), (3, 6)])
    def test_equal_nnz_different_pattern_rejected(self, move_to):
        """Same shape, same nnz, one entry elsewhere — in the same row
        (indices differ) or another row (indptr differs): the values must
        not be scattered into the old pattern's slots."""
        w = SimWorld(2)
        M = ParCSRMatrix(w, self._tridiag(), np.array([0, 4, 8]))
        moved = self._tridiag().tolil()
        moved[0, 1] = 0.0
        moved[move_to] = 7.0
        moved = sparse.csr_matrix(moved)
        moved.eliminate_zeros()
        assert moved.shape == M.shape and moved.nnz == M.nnz
        stored = [M.A.data] + [
            m.data for b in M.blocks for m in (b.diag, b.offd)
        ]
        before = [d.copy() for d in stored]
        with pytest.raises(ValueError, match="identical sparsity pattern"):
            M.refresh_values(moved)
        for got, want in zip(stored, before):
            assert np.array_equal(got, want)

    def test_equal_pattern_refreshes_every_form(self):
        w = SimWorld(2)
        M = ParCSRMatrix(w, self._tridiag(), np.array([0, 4, 8]))
        blocks = M.blocks
        M.refresh_values(3.0 * self._tridiag())
        want = reference_blocks(M.A, M.row_offsets, M.col_offsets)
        assert np.array_equal(M.A.data, 3.0 * self._tridiag().data)
        for mine, (diag, offd, _cm) in zip(blocks, want):
            assert np.array_equal(mine.diag.toarray(), diag.toarray())
            assert np.array_equal(mine.offd.toarray(), offd.toarray())


def values_like(M, value):
    """``M``'s pattern holding ``value`` in every entry."""
    M = M.copy()
    M.data[:] = value
    return M


class TestSpGEMM:
    def test_products_count(self):
        A = sparse.csr_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
        B = sparse.csr_matrix(np.array([[1.0, 0.0], [1.0, 1.0]]))
        # Row 0 of A hits B-rows 0 (1 nnz) and 1 (2 nnz); row 1 hits row 1.
        assert spgemm_products(A, B) == 1 + 2 + 2

    def test_spgemm_matches_scipy_and_records(self):
        w = SimWorld(2)
        A = sparse.random(30, 30, density=0.2, random_state=0, format="csr")
        B = sparse.random(30, 30, density=0.2, random_state=1, format="csr")
        offs = np.array([0, 15, 30])
        with w.phase_scope("gemm"):
            C = spgemm(w, A, B, offs)
        assert np.allclose(C.toarray(), (A @ B).toarray())
        assert w.ops.total("gemm").flops > 0

    def test_galerkin_product_is_rap(self):
        w = SimWorld(2)
        A = sparse.random(40, 40, density=0.15, random_state=0, format="csr")
        P = sparse.random(40, 10, density=0.3, random_state=1, format="csr")
        R = sparse.csr_matrix(P.T)
        Ac, _refresh_work = galerkin_product(
            w, R, A, P, np.array([0, 20, 40]), np.array([0, 5, 10])
        )
        assert np.allclose(Ac.toarray(), (P.T @ A @ P).toarray())

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(
            st.integers(1, 24), st.integers(1, 24), st.integers(1, 24)
        ),
        density=st.sampled_from([0.1, 0.3, 0.7]),
        seed=st.integers(0, 10_000),
        nranks=st.integers(1, 4),
    )
    def test_structural_product_keeps_planted_cancellations(
        self, dims, density, seed, nranks
    ):
        """Values drawn from {-1, +1} cancel to exactly 0 all the time
        (scipy's ``@`` then omits the entry): the product equals ``A @ B``
        densified, on the pattern of ``|A| @ |B|``, and pattern and charge
        are those of any other values on the same operand patterns."""
        n, k, m = dims
        rng = np.random.default_rng(seed)
        signs = lambda size: rng.choice([-1.0, 1.0], size)  # noqa: E731
        A = sparse.random(
            n, k, density, random_state=seed, format="csr", data_rvs=signs
        )
        B = sparse.random(
            k, m, density, random_state=seed + 1, format="csr", data_rvs=signs
        )
        offs = np.linspace(0, n, nranks + 1).astype(np.int64)
        w = SimWorld(nranks)
        with w.phase_scope("gemm"):
            C = spgemm(w, A, B, offs)
        assert np.array_equal(C.toarray(), (A @ B).toarray())
        assert C.has_canonical_format
        structural = (abs(A) @ abs(B)).toarray() != 0
        stored = np.zeros((n, m), dtype=bool)
        stored[C.nonzero()] = True  # nonzero() skips the explicit zeros
        rows = np.repeat(np.arange(n), np.diff(C.indptr))
        stored[rows, C.indices] = True
        assert np.array_equal(stored, structural)
        assert C.nnz == structural.sum()

        A2, B2 = A.copy(), B.copy()
        A2.data, B2.data = rng.random(A.nnz) + 1.0, rng.random(B.nnz) + 1.0
        w2 = SimWorld(nranks)
        with w2.phase_scope("gemm"):
            C2 = spgemm(w2, A2, B2, offs)
        assert np.array_equal(C2.indptr, C.indptr)
        assert np.array_equal(C2.indices, C.indices)
        assert log_snapshot(w2) == log_snapshot(w)

    def test_structural_pattern_survives_256_terms(self):
        """An entry summed from 256 products is still one entry: the
        pattern product must not count them in a type that wraps."""
        w = SimWorld(1)
        A = sparse.csr_matrix(np.ones((1, 256)))
        B = sparse.csr_matrix(np.tile([[1.0, -1.0]], (256, 1)))
        B[128:, :] *= -1.0
        C = spgemm(w, A, B, np.array([0, 1]))
        assert C.nnz == 2 and np.array_equal(C.toarray(), [[0.0, 0.0]])

    def _galerkin_case(self):
        rng = np.random.default_rng(5)
        A = sparse.random(60, 60, density=0.08, random_state=0, format="csr")
        A.data = rng.choice([-1.0, 1.0], A.nnz)
        P = sparse.random(60, 20, density=0.06, random_state=1, format="csr")
        P.data = rng.choice([-1.0, 1.0], P.nnz)
        return A, P, np.array([0, 30, 60]), np.array([0, 10, 20])

    def test_galerkin_refresh_writes_any_values_into_the_setup_pattern(self):
        """The set-up pattern is structural, so the refresh fits values
        that cancel where the set-up's did not (and the reverse), and it
        charges what the set-up said it would, whatever the values."""
        A, P, fine, coarse = self._galerkin_case()
        R = sparse.csr_matrix(P.T)
        w = SimWorld(2)
        with w.phase_scope("setup"):
            Ac, work = galerkin_product(w, R, A, P, fine, coarse)
        assert Ac.nnz > (R @ A @ P).nnz  # cancellations were planted
        A2 = A.copy()
        A2.data = np.random.default_rng(6).standard_normal(A.nnz)
        charged = []
        for values in (A2, A):
            with w.phase_scope(f"refresh{len(charged)}"):
                got = galerkin_refresh(w, R, values, P, Ac, work)
            assert np.shares_memory(got.indices, Ac.indices)
            assert np.array_equal(
                got.toarray(), (R @ (values @ P)).toarray()
            )
            charged.append(
                {
                    k[1]: (t.flops, t.bytes, t.launches)
                    for k, t in w.ops._kernel_tallies.items()
                    if k[0] == w.phase or k[0] == f"refresh{len(charged)}"
                }
            )
        assert charged[0] == charged[1]
        assert set(charged[0]) == {"rap_ap_numeric", "rap_rap_numeric"}
        for kernel, flops, nbytes in work.kernels:
            assert charged[0][kernel] == (sum(flops), sum(nbytes), 2)

    @settings(max_examples=80, deadline=None)
    @given(
        dims=st.tuples(
            st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)
        ),
        density=st.sampled_from([0.0, 0.1, 0.3, 0.7]),
        seed=st.integers(0, 10_000),
        wide=st.booleans(),
    )
    def test_product_kernels_are_scipys_product(
        self, dims, density, seed, wide
    ):
        """``product_nnz`` and ``numeric_product`` call SciPy's private
        compiled kernels directly: they must be ``A @ B``'s own passes,
        bit for bit and in its output order, on values that cancel to
        exactly 0 (``{-1, +1}`` times a few magnitudes, whose sums round),
        on empty rows and columns and on 64-bit index arrays."""
        n, k, m = dims
        rng = np.random.default_rng(seed)

        def values(size):
            return rng.choice([-1.0, 1.0], size) * rng.choice(
                [1.0, 0.1, 3.7], size
            )

        def operand(rows, cols, salt):
            M = sparse.random(
                rows, cols, density, random_state=seed + salt,
                format="csr", data_rvs=values,
            )
            # Empty one row of A and one column of B, so of the product.
            if salt == 0 and rows:
                M = sparse.diags(1.0 * (np.arange(rows) != 0)) @ M
            if salt == 1 and cols:
                M = M @ sparse.diags(1.0 * (np.arange(cols) != 0))
            M = M.tocsr()
            if wide:
                M.indptr = M.indptr.astype(np.int64)
                M.indices = M.indices.astype(np.int64)
            return M

        A = operand(n, k, 0)
        B = operand(k, m, 1)
        ref = A @ B
        # abs() sorts its operand in place: count on copies.
        structural = abs(A.copy()) @ abs(B.copy())
        nnz = product_nnz(A, B)
        assert nnz == structural.nnz
        C = numeric_product(A, B, nnz)
        # (The index width is not compared: on 64-bit operands SciPy's
        # narrowing reads the unwritten tail of its buffers.)
        assert np.array_equal(C.indptr, ref.indptr)
        assert np.array_equal(C.indices, ref.indices)
        assert C.data.tobytes() == ref.data.tobytes()
        S = structural_product(A, B, sort=C.nnz != nnz)
        if C.nnz == nnz:
            assert S.indices.tobytes() == ref.indices.tobytes()
        ref.sort_indices()
        S.sort_indices()
        assert np.array_equal(S.indptr, structural.indptr)
        assert values_on_pattern(S, ref).tobytes() == S.data.tobytes()

    def test_product_kernels_refuse_other_formats(self):
        A = sparse.random(6, 5, 0.5, random_state=0, format="csr")
        with pytest.raises(TypeError):
            product_nnz(A, A.T)  # a CSC view: its arrays are not rows
        with pytest.raises(TypeError):
            numeric_product(A.tocsc(), A.T.tocsr(), 36)

    def _cancel_in_ap(self, A, P, R, Ac, order):
        """``A``'s values with one entry of ``A @ P`` cancelled to exactly
        0, chosen so that SciPy's output order of ``R @ (A @ P)`` moves
        while its entry count per row does not."""
        counts = (values_like(A, 1.0) @ values_like(P, 1.0)).tocoo()
        twos = counts.data == 2  # entries of exactly two products
        Pc = P.tocsc()
        for i, j in zip(counts.row[twos], counts.col[twos]):
            row = A.indices[A.indptr[i] : A.indptr[i + 1]]
            col = Pc.indices[Pc.indptr[j] : Pc.indptr[j + 1]]
            k1, k2 = np.intersect1d(row, col)
            A2 = A.copy()
            A2[i, k2] = -A2[i, k1] * P[k1, j] / P[k2, j]
            RAP = R @ (A2 @ P)
            if np.array_equal(RAP.indptr, Ac.indptr) and not np.array_equal(
                RAP.indices[order], Ac.indices
            ):
                return A2
        raise AssertionError("no cancellation in A @ P moves R @ (A @ P)")

    def test_galerkin_refresh_after_the_order_moved_is_the_sorted_path(self):
        """The refresh keeps the permutation its first call captured; a
        cancellation in ``A @ P`` moves SciPy's output order of ``R @ (A
        @ P)``, the permutation no longer fits, and the refresh falls
        back to sorting: bitwise what ``values_on_pattern`` gives."""
        A, P, fine, coarse = self._galerkin_case()
        R = sparse.csr_matrix(P.T)
        w = SimWorld(2)
        Ac, work = galerkin_product(w, R, A, P, fine, coarse)
        A1 = A.copy()
        A1.data = np.random.default_rng(7).standard_normal(A.nnz)
        first = galerkin_refresh(w, R, A1, P, Ac, work)
        order = work.order.copy()
        RAP = R @ (A1 @ P)
        RAP.sort_indices()
        assert first.data.tobytes() == RAP.data.tobytes()
        A2 = self._cancel_in_ap(A1, P, R, Ac, order)
        assert (A2 @ P).nnz < work.ap_nnz
        got = galerkin_refresh(w, R, A2, P, Ac, work)
        RAP = R @ (A2 @ P)
        RAP.sort_indices()
        assert got.data.tobytes() == values_on_pattern(Ac, RAP).tobytes()
        assert np.array_equal(work.order, order)

    def test_galerkin_refresh_rejects_a_moved_fine_pattern(self):
        A, P, fine, coarse = self._galerkin_case()
        R = sparse.csr_matrix(P.T)
        w = SimWorld(2)
        Ac, work = galerkin_product(w, R, A, P, fine, coarse)
        dense = sparse.csr_matrix(np.ones(A.shape))
        with pytest.raises(SparsityPatternError):
            galerkin_refresh(w, R, dense, P, Ac, work)

    def test_spmv_bytes_model(self):
        assert spmv_bytes(100, 10) == 12 * 100 + 8 * 100 + 12 * 10
