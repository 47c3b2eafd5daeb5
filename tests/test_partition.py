"""Tests for RCB, the multilevel partitioner, metrics, and renumbering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.partition import (
    balance_stats,
    build_numbering,
    components_per_rank,
    edge_cut,
    heavy_edge_matching,
    multilevel_partition,
    nnz_per_rank,
    rcb_partition,
)
from repro.partition.multilevel import (
    DENSE_FIEDLER_MAX,
    MultilevelOptions,
    _coarsen,
    _fiedler,
    _refine,
)
from tests import partition_reference as reference


def grid_graph(nx, ny):
    """2-D lattice adjacency."""
    n = nx * ny
    ids = np.arange(n).reshape(nx, ny)
    e = []
    e.append(np.stack([ids[:-1].ravel(), ids[1:].ravel()], axis=1))
    e.append(np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1))
    e = np.concatenate(e)
    ones = np.ones(e.shape[0])
    g = sparse.coo_matrix(
        (
            np.concatenate([ones, ones]),
            (
                np.concatenate([e[:, 0], e[:, 1]]),
                np.concatenate([e[:, 1], e[:, 0]]),
            ),
        ),
        shape=(n, n),
    )
    return g.tocsr()


class TestRCB:
    def test_counts_balanced_power_of_two(self):
        rng = np.random.default_rng(0)
        pts = rng.random((1000, 3))
        parts = rcb_partition(pts, 8)
        counts = np.bincount(parts, minlength=8)
        assert counts.max() - counts.min() <= 8

    def test_non_power_of_two_parts(self):
        rng = np.random.default_rng(1)
        pts = rng.random((999, 3))
        parts = rcb_partition(pts, 7)
        assert parts.max() == 6
        counts = np.bincount(parts)
        assert counts.max() / counts.min() < 1.2

    def test_weighted_median(self):
        # All weight on the left half: a 2-part split puts the boundary
        # inside the heavy region.
        pts = np.stack([np.arange(100.0), np.zeros(100), np.zeros(100)], 1)
        w = np.where(pts[:, 0] < 50, 10.0, 1.0)
        parts = rcb_partition(pts, 2, weights=w)
        w0 = w[parts == 0].sum()
        w1 = w[parts == 1].sum()
        assert abs(w0 - w1) / (w0 + w1) < 0.1

    def test_single_part(self):
        parts = rcb_partition(np.random.rand(10, 3), 1)
        assert np.all(parts == 0)

    def test_invalid_nparts(self):
        with pytest.raises(ValueError):
            rcb_partition(np.random.rand(5, 3), 0)

    def test_weight_shape_validated(self):
        with pytest.raises(ValueError):
            rcb_partition(np.random.rand(5, 3), 2, weights=np.ones(4))

    def test_spatial_locality(self):
        # RCB parts are coordinate slabs: every part's bounding box along
        # the cut dimension is disjoint for a 2-way split.
        rng = np.random.default_rng(2)
        pts = rng.random((500, 3)) * [10, 1, 1]
        parts = rcb_partition(pts, 2)
        x0 = pts[parts == 0][:, 0]
        x1 = pts[parts == 1][:, 0]
        assert x0.max() <= x1.min() + 1e-12 or x1.max() <= x0.min() + 1e-12


class TestHeavyEdgeMatching:
    def test_matching_reduces_size(self):
        g = grid_graph(20, 20)
        rng = np.random.default_rng(0)
        agg = heavy_edge_matching(g, rng)
        nc = agg.max() + 1
        assert nc < 0.75 * g.shape[0]

    def test_aggregates_are_pairs_or_singletons(self):
        g = grid_graph(10, 10)
        agg = heavy_edge_matching(g, np.random.default_rng(0))
        counts = np.bincount(agg)
        assert counts.max() <= 2

    def test_matched_pairs_are_adjacent(self):
        g = grid_graph(8, 8)
        agg = heavy_edge_matching(g, np.random.default_rng(3))
        counts = np.bincount(agg)
        pair_ids = np.flatnonzero(counts == 2)
        gcsr = g.tocsr()
        for pid in pair_ids[:20]:
            a, b = np.flatnonzero(agg == pid)
            assert gcsr[a, b] != 0

    def test_prefers_heavy_edges(self):
        # Path graph 0-1-2 with a heavy 1-2 edge: 1 should pair with 2.
        g = sparse.csr_matrix(
            np.array(
                [
                    [0.0, 1.0, 0.0],
                    [1.0, 0.0, 100.0],
                    [0.0, 100.0, 0.0],
                ]
            )
        )
        agg = heavy_edge_matching(g, np.random.default_rng(0))
        assert agg[1] == agg[2]
        assert agg[0] != agg[1]


class TestMultilevel:
    def test_parts_valid_and_balanced(self):
        g = grid_graph(30, 30)
        parts = multilevel_partition(g, 6, options=None)
        assert parts.min() == 0 and parts.max() == 5
        counts = np.bincount(parts)
        assert counts.max() / counts.mean() < 1.25

    def test_vertex_weight_balancing(self):
        g = grid_graph(20, 20)
        vw = np.ones(400)
        vw[:100] = 10.0
        parts = multilevel_partition(g, 4, vertex_weights=vw)
        loads = np.zeros(4)
        np.add.at(loads, parts, vw)
        assert loads.max() / loads.mean() < 1.3

    def test_single_part_shortcut(self):
        g = grid_graph(5, 5)
        assert np.all(multilevel_partition(g, 1) == 0)

    def test_cut_quality_vs_random(self):
        g = grid_graph(24, 24)
        parts = multilevel_partition(g, 4)
        rng = np.random.default_rng(0)
        random_parts = rng.integers(0, 4, g.shape[0])
        assert edge_cut(g, parts) < 0.5 * edge_cut(g, random_parts)

    def test_invalid_inputs(self):
        g = grid_graph(4, 4)
        with pytest.raises(ValueError):
            multilevel_partition(g, 0)
        with pytest.raises(ValueError):
            multilevel_partition(g, 2, vertex_weights=np.ones(3))

    @settings(max_examples=10, deadline=None)
    @given(nparts=st.integers(2, 6), seed=st.integers(0, 50))
    def test_property_every_part_nonempty(self, nparts, seed):
        g = grid_graph(15, 15)
        rng = np.random.default_rng(seed)
        vw = rng.random(g.shape[0]) + 0.5
        parts = multilevel_partition(g, nparts, vertex_weights=vw)
        assert np.bincount(parts, minlength=nparts).min() > 0


def disjoint_union(*graphs):
    """Block-diagonal union; vertex ids follow the graphs' order."""
    return sparse.block_diag(graphs, format="csr")


def with_isolated(A, ids):
    """``A`` with isolated vertices inserted so that they get ``ids`` in
    the result (the other vertices keep their order)."""
    n = A.shape[0] + len(ids)
    keep = np.setdiff1d(np.arange(n), ids)
    coo = A.tocoo()
    return sparse.csr_matrix(
        (coo.data, (keep[coo.row], keep[coo.col])), shape=(n, n)
    )


class TestKnownOptima:
    """Graphs whose best 2-way partition is known."""

    def test_grid_below_the_coarsest_size_is_cut_across_its_long_side(self):
        g = grid_graph(8, 16)
        assert g.shape[0] < MultilevelOptions().coarsest_size
        parts = multilevel_partition(g, 2)
        assert edge_cut(g, parts) == 8
        assert np.bincount(parts).tolist() == [64, 64]

    def test_two_equal_components_are_one_part_each(self):
        half = grid_graph(20, 20)
        g = disjoint_union(half, half)
        assert g.shape[0] > MultilevelOptions().coarsest_size
        parts = multilevel_partition(g, 2)
        assert edge_cut(g, parts) == 0
        n = half.shape[0]
        assert np.unique(parts[:n]).size == np.unique(parts[n:]).size == 1
        assert parts[0] != parts[n]

    def test_isolated_vertices_go_to_the_lightest_parts(self):
        # The two 5 x 10 halves weigh 50 each.  Dealt heaviest first to the
        # part lightest at the time: 30 to one, 20 then 10 to the other
        # (50 + 20 < 80), then 5 to the first (80 = 80, the lower part id).
        half = grid_graph(5, 10)
        ids = [3, 57, 101, 103]
        g = with_isolated(disjoint_union(half, half), ids)
        vw = np.ones(g.shape[0])
        vw[ids] = [10.0, 30.0, 5.0, 20.0]
        parts = multilevel_partition(g, 2, vertex_weights=vw)
        assert parts[57] == parts[101] == 0
        assert parts[3] == parts[103] == 1
        assert np.bincount(parts, weights=vw).tolist() == [85.0, 80.0]

    def test_only_isolated_vertices(self):
        g = sparse.csr_matrix((7, 7))
        parts = multilevel_partition(g, 3, vertex_weights=np.arange(7.0))
        # 6 -> 0, 5 -> 1, 4 -> 2, 3 -> 2, 2 -> 1, 1 -> 0, 0 -> 0.
        assert parts.tolist() == [0, 0, 1, 2, 2, 1, 0]


class TestFiedler:
    @pytest.mark.parametrize("shape", [(12, 9), (50, 30)])
    def test_sparse_and_dense_solvers_agree_and_fix_the_sign(self, shape):
        # 108 vertices take the dense path, 1 500 the lobpcg path.  Both
        # grids have a simple second eigenvalue whose vector is odd about
        # the grid's middle: its largest magnitude ties at both ends, and
        # the sign rule makes vertex 0's end the positive one.
        g = grid_graph(*shape)
        L = sparse.diags(np.asarray(g.sum(axis=1)).ravel()) - g
        want = np.linalg.eigh(L.toarray())[1][:, 1]
        want *= np.sign(want[0]) / np.abs(want).max()
        got = _fiedler(g)
        assert (g.shape[0] > DENSE_FIEDLER_MAX) == (shape == (50, 30))
        assert np.allclose(got, want, atol=1e-4)


@st.composite
def components_and_holes(draw):
    """A random graph of grid components and isolated vertices, ids
    shuffled, with ``partition_nodes``' degree + 1 vertex weights."""
    shapes = draw(
        st.lists(st.tuples(st.integers(2, 24), st.integers(2, 24)),
                 min_size=1, max_size=4)
    )
    holes = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2**16))
    g = disjoint_union(*(grid_graph(nx, ny) for nx, ny in shapes))
    n = g.shape[0] + holes
    ids = np.random.default_rng(seed).permutation(n)
    g = with_isolated(g, np.sort(ids[:holes]))
    perm = ids.argsort()
    g = g[perm][:, perm].tocsr()
    return g, np.diff(g.indptr) + 1.0


class TestComponentsProperty:
    @settings(max_examples=60, deadline=None)
    @given(case=components_and_holes(), nparts=st.integers(2, 8))
    def test_valid_nonempty_and_balanced_where_feasible(self, case, nparts):
        g, vw = case
        parts = multilevel_partition(g, nparts, vertex_weights=vw)
        assert parts.shape == (g.shape[0],)
        assert parts.min() >= 0 and parts.max() < nparts
        loads = np.bincount(parts, weights=vw, minlength=nparts)
        if g.shape[0] >= nparts:
            assert loads.min() > 0
        # Feasible: every vertex weighs at most 1/40 of a part's share.
        if vw.sum() >= 40 * vw.max() * nparts:
            assert loads.max() / loads.mean() <= 1.05


def weighted_graph(seed):
    """Random symmetric graph in canonical CSR, no diagonal, with integer
    edge weights 2..8 and integer vertex weights 1..19."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 1500))
    g = sparse.random(
        n, n, density=rng.uniform(1, 6) / n,
        random_state=np.random.RandomState(seed),
    ).tocoo()
    off = g.row != g.col
    i, j, w = g.row[off], g.col[off], np.ceil(4 * g.data[off])
    A = sparse.coo_matrix(
        (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    ).tocsr()
    return A, rng.integers(1, 20, size=n).astype(float)


class TestAgainstReference:
    """Matching, coarsening and refinement work on the CSR arrays; each
    must equal its SciPy-product reference bit for bit on integer-weighted
    graphs, and so must the parts."""

    @pytest.mark.parametrize("seed", range(8))
    def test_phases_and_parts_match(self, seed):
        A, vw = weighted_graph(seed)
        agg = heavy_edge_matching(A, np.random.default_rng(seed))
        assert np.array_equal(
            agg, reference.heavy_edge_matching(A, np.random.default_rng(seed))
        )
        Ac = _coarsen(A, agg)
        vc = np.bincount(agg, weights=vw)
        Rc, rc = reference.coarsen(A, vw, agg)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(Ac, name), getattr(Rc, name))
        assert np.array_equal(vc, rc)
        nparts = 2 + seed % 7
        parts = np.random.default_rng(seed).integers(0, nparts, A.shape[0])
        assert np.array_equal(
            _refine(A, vw, parts, nparts),
            reference.refine(A, vw, parts, nparts),
        )
        # The partitioner drops a stored diagonal itself.
        A = (A + sparse.diags(np.full(A.shape[0], 3.0))).tocsr()
        opt = MultilevelOptions(coarsest_size=16 + 40 * seed, seed=seed)
        assert np.array_equal(
            multilevel_partition(A, nparts, vw, opt),
            reference.multilevel_partition(A, nparts, vw, opt),
        )


class TestMetrics:
    def test_nnz_per_rank(self):
        A = sparse.csr_matrix(np.array([[1, 1], [1, 0.0]]))
        parts = np.array([0, 1])
        counts = nnz_per_rank(A, parts)
        assert counts.tolist() == [2, 1]

    def test_balance_stats(self):
        A = sparse.random(100, 100, density=0.05, random_state=0).tocsr()
        parts = np.arange(100) % 4
        bs = balance_stats(A, parts)
        assert bs.nparts == 4
        assert bs.minimum <= bs.median <= bs.maximum
        assert bs.spread == bs.maximum - bs.minimum

    def test_edge_cut_counts_crossings_once(self):
        g = grid_graph(4, 1)
        parts = np.array([0, 0, 1, 1])
        assert edge_cut(g, parts) == 1

    def test_components_per_rank_detects_slivers(self):
        g = grid_graph(6, 1)  # path of 6
        parts = np.array([0, 1, 0, 0, 1, 0])
        comps = components_per_rank(g, parts)
        assert comps[0] == 3  # {0}, {2,3}, {5}
        assert comps[1] == 2


class TestRenumbering:
    def test_round_trip(self):
        parts = np.array([2, 0, 1, 0, 2, 1])
        num = build_numbering(parts, 3)
        assert np.array_equal(
            num.old_to_new[num.new_to_old], np.arange(6)
        )
        assert num.offsets.tolist() == [0, 2, 4, 6]

    def test_rank_blocks_contiguous(self):
        rng = np.random.default_rng(0)
        parts = rng.integers(0, 4, 100)
        num = build_numbering(parts, 4)
        for r in range(4):
            olds = num.owned_old_ids(r)
            assert np.all(parts[olds] == r)

    def test_stable_within_rank(self):
        parts = np.array([1, 0, 1, 0])
        num = build_numbering(parts, 2)
        assert num.owned_old_ids(0).tolist() == [1, 3]
        assert num.owned_old_ids(1).tolist() == [0, 2]

    def test_empty_trailing_rank(self):
        parts = np.array([0, 0, 1])
        num = build_numbering(parts, 4)
        assert num.offsets.tolist() == [0, 2, 3, 3, 3]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_numbering(np.array([0, 5]), 2)

    def test_owner_of_new(self):
        parts = np.array([1, 0, 1, 0])
        num = build_numbering(parts, 2)
        owners = num.owner_of_new(np.arange(4))
        assert owners.tolist() == [0, 0, 1, 1]

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 60), nranks=st.integers(1, 6), seed=st.integers(0, 99))
    def test_property_permutation(self, n, nranks, seed):
        rng = np.random.default_rng(seed)
        parts = rng.integers(0, nranks, n)
        num = build_numbering(parts, nranks)
        assert np.array_equal(np.sort(num.old_to_new), np.arange(n))
        # Block sizes match part counts.
        counts = np.bincount(parts, minlength=nranks)
        assert np.array_equal(np.diff(num.offsets), counts)
