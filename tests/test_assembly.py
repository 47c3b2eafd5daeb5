"""Tests for the three-stage assembly pipeline (paper §3, Algorithms 1-2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly import (
    EquationGraph,
    GraphSpec,
    HypreIJMatrix,
    HypreIJVector,
    LocalAssembler,
    assemble_global_matrix,
    assemble_global_vector,
    reduce_by_key,
    stable_sort_by_key,
)
from repro.comm import SimWorld
from repro.partition import build_numbering


class TestPrimitives:
    def test_stable_sort_by_key(self):
        i = np.array([2, 0, 2, 1])
        j = np.array([1, 5, 0, 3])
        v = np.array([10.0, 20.0, 30.0, 40.0])
        (i_s, j_s), v_s = stable_sort_by_key((i, j), v)
        assert i_s.tolist() == [0, 1, 2, 2]
        assert j_s.tolist() == [5, 3, 0, 1]
        assert v_s.tolist() == [20.0, 40.0, 30.0, 10.0]

    def test_sort_stability(self):
        i = np.array([1, 1, 1])
        j = np.array([2, 2, 2])
        v = np.array([1.0, 2.0, 3.0])
        (_i, _j), v_s = stable_sort_by_key((i, j), v)
        assert v_s.tolist() == [1.0, 2.0, 3.0]

    def test_reduce_by_key_sums_runs(self):
        i = np.array([0, 0, 1, 1, 1, 2])
        j = np.array([0, 0, 1, 1, 2, 2])
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        (i_u, j_u), v_u = reduce_by_key((i, j), v)
        assert i_u.tolist() == [0, 1, 1, 2]
        assert j_u.tolist() == [0, 1, 2, 2]
        assert v_u.tolist() == [3.0, 7.0, 5.0, 6.0]

    def test_reduce_empty(self):
        (i_u,), v_u = reduce_by_key(
            (np.zeros(0, dtype=np.int64),), np.zeros(0)
        )
        assert i_u.size == 0 and v_u.size == 0

    def test_sort_requires_keys(self):
        with pytest.raises(ValueError):
            stable_sort_by_key((), np.zeros(3))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(0, 200))
    def test_property_sort_reduce_equals_coo_sum(self, seed, n):
        """sort+reduce over random duplicated COO == scipy duplicate sum."""
        from scipy import sparse

        rng = np.random.default_rng(seed)
        i = rng.integers(0, 10, n)
        j = rng.integers(0, 10, n)
        v = rng.standard_normal(n)
        (i_s, j_s), v_s = stable_sort_by_key((i, j), v)
        (i_u, j_u), v_u = reduce_by_key((i_s, j_s), v_s)
        ref = sparse.coo_matrix((v, (i, j)), shape=(10, 10)).toarray()
        got = sparse.coo_matrix((v_u, (i_u, j_u)), shape=(10, 10)).toarray()
        assert np.allclose(got, ref, atol=1e-12)


def build_random_problem(seed=0, n=80, E=200, nranks=4, ncons=5):
    """Random 'mesh' + partition + graph for pipeline tests."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(E, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    cons = rng.choice(n, size=ncons, replace=False)
    parts = rng.integers(0, nranks, size=n)
    num = build_numbering(parts, nranks)
    w = SimWorld(nranks)
    spec = GraphSpec(n=n, edges=edges, constraint_rows=cons)
    g = EquationGraph(w, num, spec)
    return rng, w, num, g, edges, cons


def reference_assembly(num, edges, cons, n, ge, diag, node_rhs, erhs, bc_vals):
    """Dense reference of matrix and RHS in new numbering."""
    o2n = num.old_to_new
    is_con = np.zeros(n, bool)
    is_con[o2n[cons]] = True
    A = np.zeros((n, n))
    b = np.zeros(n)
    ea, eb = o2n[edges[:, 0]], o2n[edges[:, 1]]
    for k in range(edges.shape[0]):
        a_, b_ = ea[k], eb[k]
        if not is_con[a_]:
            A[a_, a_] += ge[k]
            A[a_, b_] -= ge[k]
            b[a_] += erhs[k, 0]
        if not is_con[b_]:
            A[b_, b_] += ge[k]
            A[b_, a_] -= ge[k]
            b[b_] += erhs[k, 1]
    A[np.arange(n), np.arange(n)] += diag
    free = ~is_con
    b[free] += node_rhs[free]
    b[o2n[cons]] = bc_vals
    return A, b


class TestGraph:
    def test_owned_patterns_sorted_unique(self):
        _rng, _w, num, g, _e, _c = build_random_problem()
        for r in range(num.nranks):
            i, j = g.owned_pattern(r)
            key = i * 10**6 + j
            assert np.all(np.diff(key) > 0)
            # Owned rows really owned.
            lo, hi = num.offsets[r], num.offsets[r + 1]
            if i.size:
                assert i.min() >= lo and i.max() < hi

    def test_shared_rows_owned_elsewhere(self):
        _rng, _w, num, g, _e, _c = build_random_problem()
        for r in range(num.nranks):
            i, _j = g.shared_pattern(r)
            if i.size:
                owners = num.owner_of_new(i)
                assert np.all(owners != r)

    def test_every_row_has_diagonal(self):
        _rng, _w, num, g, _e, _c = build_random_problem()
        diag_found = np.zeros(g.n, dtype=bool)
        for r in range(num.nranks):
            i, j = g.owned_pattern(r)
            diag_found[i[i == j]] = True
        assert np.all(diag_found)

    def test_constraint_rows_are_identity_only(self):
        _rng, _w, num, g, _e, cons = build_random_problem()
        con_new = set(num.old_to_new[cons].tolist())
        for r in range(num.nranks):
            for pat in (g.owned_pattern(r), g.shared_pattern(r)):
                i, j = pat
                mask = np.isin(i, list(con_new))
                assert np.all(i[mask] == j[mask])

    def test_nnz_recv_matches_shared_sums(self):
        _rng, _w, num, g, _e, _c = build_random_problem()
        total_sent = sum(
            g.shared_pattern(r)[0].size for r in range(num.nranks)
        )
        total_recv = sum(g.nnz_recv(r) for r in range(num.nranks))
        assert total_sent == total_recv

    def test_spec_size_mismatch_rejected(self):
        parts = np.zeros(5, dtype=np.int64)
        num = build_numbering(parts, 1)
        w = SimWorld(1)
        spec = GraphSpec(
            n=6,
            edges=np.zeros((0, 2), dtype=np.int64),
            constraint_rows=np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            EquationGraph(w, num, spec)


class TestPipelineEndToEnd:
    @pytest.mark.parametrize("variant", ["optimized", "sparse_add", "general"])
    def test_matrix_and_vector_match_reference(self, variant):
        rng, w, num, g, edges, cons = build_random_problem(seed=7)
        n = g.n
        E = edges.shape[0]
        ge = rng.random(E) + 0.1
        diag = rng.random(n) + 1.0
        node_rhs = rng.standard_normal(n)
        erhs = rng.standard_normal((E, 2))
        bc_vals = rng.standard_normal(cons.size)

        la = LocalAssembler(w, g)
        la.add_edge_matrix(np.stack([ge, -ge, -ge, ge], axis=1))
        la.add_diag(diag)
        la.add_node_rhs(node_rhs)
        la.add_edge_rhs(erhs)
        la.set_constraint_rhs(num.old_to_new[cons], bc_vals)
        local = la.finalize()

        am = assemble_global_matrix(w, num, local, variant=variant)
        rhs = assemble_global_vector(w, num, local, variant=variant)

        Aref, bref = reference_assembly(
            num, edges, cons, n, ge, diag, node_rhs, erhs, bc_vals
        )
        assert np.allclose(am.matrix.A.toarray(), Aref, atol=1e-12)
        assert np.allclose(rhs.data, bref, atol=1e-12)

    def test_variants_agree_with_each_other(self):
        results = []
        for variant in ("optimized", "sparse_add", "general"):
            rng, w, num, g, edges, cons = build_random_problem(seed=11)
            E = edges.shape[0]
            rng2 = np.random.default_rng(99)
            ge = rng2.random(E) + 0.1
            la = LocalAssembler(w, g)
            la.add_edge_matrix(np.stack([ge, -ge, -ge, ge], axis=1))
            la.add_diag(np.ones(g.n))
            local = la.finalize()
            am = assemble_global_matrix(w, num, local, variant=variant)
            results.append(am.matrix.A.toarray())
        assert np.allclose(results[0], results[1])
        assert np.allclose(results[0], results[2])

    def test_general_variant_costs_more(self):
        """The baseline ('general') path must record more data motion."""
        recorded = {}
        for variant in ("optimized", "general"):
            rng, w, num, g, edges, cons = build_random_problem(seed=5)
            ge = rng.random(edges.shape[0]) + 0.1
            la = LocalAssembler(w, g)
            la.add_edge_matrix(np.stack([ge, -ge, -ge, ge], axis=1))
            la.add_diag(np.ones(g.n))
            local = la.finalize()
            with w.phase_scope("ga"):
                assemble_global_matrix(w, num, local, variant=variant)
            recorded[variant] = w.ops.total("ga").bytes
        assert recorded["general"] > recorded["optimized"]

    def test_every_staged_entry_is_sorted_and_reduced_once(self):
        """sort_reduce_by_key records nothing itself (RL005 pragma: the
        callers charge both halves); this is that charge."""
        rng, w, num, g, edges, cons = build_random_problem(seed=5)
        ge = rng.random(edges.shape[0]) + 0.1
        la = LocalAssembler(w, g)
        la.add_edge_matrix(np.stack([ge, -ge, -ge, ge], axis=1))
        la.add_diag(np.ones(g.n))
        local = la.finalize()
        with w.phase_scope("ga"):
            assemble_global_matrix(w, num, local, variant="optimized")
        staged = sum(
            own.nnz + send.nnz
            for own, send in zip(local.own_matrix, local.send_matrix)
        )
        # Keyed reduction: 1 flop per pair; radix sort: 8 passes moving
        # a 16-byte key + 16-byte payload each way.
        assert w.ops.kernel_tally("ga", "asm_reduce").flops == staged
        assert w.ops.kernel_tally("ga", "asm_sort").bytes == 8 * 48.0 * staged

    def test_unknown_variant_rejected(self):
        rng, w, num, g, edges, cons = build_random_problem()
        la = LocalAssembler(w, g)
        la.add_diag(np.ones(g.n))
        local = la.finalize()
        with pytest.raises(ValueError):
            assemble_global_matrix(w, num, local, variant="bogus")
        with pytest.raises(ValueError):
            assemble_global_vector(w, num, local, variant="bogus")

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 5000),
        nranks=st.integers(1, 6),
    )
    def test_property_assembled_matrix_matches_reference(self, seed, nranks):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 50))
        E = int(rng.integers(5, 120))
        edges = rng.integers(0, n, size=(E, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        if edges.shape[0] == 0:
            return
        cons = rng.choice(n, size=min(3, n), replace=False)
        parts = rng.integers(0, nranks, size=n)
        num = build_numbering(parts, nranks)
        w = SimWorld(nranks)
        g = EquationGraph(
            w, num, GraphSpec(n=n, edges=edges, constraint_rows=cons)
        )
        E2 = edges.shape[0]
        ge = rng.random(E2) + 0.1
        diag = rng.random(n) + 1.0
        la = LocalAssembler(w, g)
        la.add_edge_matrix(np.stack([ge, -ge, -ge, ge], axis=1))
        la.add_diag(diag)
        local = la.finalize()
        am = assemble_global_matrix(w, num, local)
        Aref, _ = reference_assembly(
            num,
            edges,
            cons,
            n,
            ge,
            diag,
            np.zeros(n),
            np.zeros((E2, 2)),
            np.zeros(cons.size),
        )
        assert np.allclose(am.matrix.A.toarray(), Aref, atol=1e-12)


class TestCoupledFringeGraph:
    def test_fringe_donor_columns_present(self):
        rng = np.random.default_rng(0)
        n = 40
        edges = rng.integers(0, n, size=(60, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        fringe = np.array([3, 7])
        donors = rng.integers(10, 40, size=(2, 8))
        parts = rng.integers(0, 3, n)
        num = build_numbering(parts, 3)
        w = SimWorld(3)
        spec = GraphSpec(
            n=n,
            edges=edges,
            constraint_rows=fringe,
            fringe_rows=fringe,
            fringe_donors=donors,
            coupled_fringe=True,
        )
        g = EquationGraph(w, num, spec)
        la = LocalAssembler(w, g)
        la.add_diag(np.ones(n))
        weights = rng.random((2, 8))
        la.add_fringe_matrix(weights)
        local = la.finalize()
        am = assemble_global_matrix(w, num, local)
        A = am.matrix.A.toarray()
        o2n = num.old_to_new
        for k, fr in enumerate(fringe):
            row = A[o2n[fr]]
            for d in range(8):
                col = o2n[donors[k, d]]
                assert row[col] != 0.0

    def test_uncoupled_graph_rejects_fringe_fill(self):
        _rng, w, num, g, _e, _c = build_random_problem()
        la = LocalAssembler(w, g)
        with pytest.raises(RuntimeError):
            la.add_fringe_matrix(np.ones((1, 8)))


class TestIJInterface:
    def test_six_call_assembly_matches_direct(self):
        rng = np.random.default_rng(4)
        n = 24
        nranks = 3
        parts = rng.integers(0, nranks, n)
        num = build_numbering(parts, nranks)
        w = SimWorld(nranks)

        ij = HypreIJMatrix(w, num)
        ijv = HypreIJVector(w, num)
        Aref = np.zeros((n, n))
        bref = np.zeros(n)
        # Set owned values first, then stage the off-rank additions — the
        # semantics of the IJ API (sets land before the assemble-time adds).
        for r in range(nranks):
            lo, hi = num.offsets[r], num.offsets[r + 1]
            rows = rng.integers(lo, hi, 12)
            cols = rng.integers(0, n, 12)
            vals = rng.standard_normal(12)
            ij.set_values2(r, rows, cols, vals)
            for i, j, v in zip(rows, cols, vals):
                Aref[i, j] += v  # duplicates accumulate within SetValues2
            owned_idx = np.arange(lo, hi)
            ov = rng.standard_normal(owned_idx.size)
            ijv.set_values2(r, owned_idx, ov)
            bref[owned_idx] = ov
        for r in range(nranks):
            lo, hi = num.offsets[r], num.offsets[r + 1]
            other = np.setdiff1d(np.arange(n), np.arange(lo, hi))
            orows = rng.choice(other, 5)
            ocols = rng.integers(0, n, 5)
            ovals = rng.standard_normal(5)
            ij.add_to_values2(r, orows, ocols, ovals)
            for i, j, v in zip(orows, ocols, ovals):
                Aref[i, j] += v
            vrows = rng.choice(other, 4)
            vvals = rng.standard_normal(4)
            ijv.add_to_values2(r, vrows, vvals)
            for i, v in zip(vrows, vvals):
                bref[i] += v

        am = ij.assemble()
        rhs = ijv.assemble()
        assert np.allclose(am.matrix.A.toarray(), Aref, atol=1e-12)
        assert np.allclose(rhs.data, bref, atol=1e-12)

    def test_set_values_rejects_foreign_rows(self):
        parts = np.array([0, 0, 1, 1])
        num = build_numbering(parts, 2)
        w = SimWorld(2)
        ij = HypreIJMatrix(w, num)
        with pytest.raises(ValueError):
            ij.set_values2(0, np.array([3]), np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            ij.add_to_values2(0, np.array([0]), np.array([0]), np.array([1.0]))
