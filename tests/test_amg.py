"""Tests for the BoomerAMG reproduction: SoC, PMIS, interpolation, cycles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.amg import (
    AMGHierarchy,
    AMGOptions,
    AMGPreconditioner,
    C_POINT,
    F_POINT,
    SMOOTHERS,
    aggressive_strength,
    bamg_direct_interpolation,
    direct_interpolation,
    mm_ext_i_interpolation,
    mm_ext_interpolation,
    pmis_coarsen,
    second_pass_aggressive,
    strength_matrix,
    truncate_interpolation,
)
from repro.comm import SimWorld
from repro.linalg import ParCSRMatrix, ParVector


def poisson2d(nx, ny=None, eps=1.0):
    """(Possibly anisotropic) 2-D Poisson matrix."""
    ny = ny or nx
    Tx = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], (nx, nx))
    Ty = sparse.diags([-eps, 2.0 * eps, -eps], [-1, 0, 1], (ny, ny))
    return (
        sparse.kron(sparse.eye(ny), Tx) + sparse.kron(Ty, sparse.eye(nx))
    ).tocsr()


def par(A, nranks=4, seed=0):
    n = A.shape[0]
    w = SimWorld(nranks)
    offs = np.linspace(0, n, nranks + 1).astype(np.int64)
    return w, ParCSRMatrix(w, A, offs)


class TestStrength:
    def test_isotropic_laplacian_all_strong(self):
        A = poisson2d(8)
        S = strength_matrix(A, theta=0.25)
        # Every off-diagonal of the 5-point stencil is equally strong.
        assert S.nnz == A.nnz - A.shape[0]

    def test_anisotropic_weak_directions_dropped(self):
        A = poisson2d(8, eps=1e-4)
        S = strength_matrix(A, theta=0.25)
        # Only the strong (x) couplings survive: about 2 per interior row.
        assert S.nnz < 0.6 * (A.nnz - A.shape[0])

    def test_no_diagonal(self):
        S = strength_matrix(poisson2d(6), 0.25)
        assert np.all(S.diagonal() == 0)

    def test_theta_range_validated(self):
        with pytest.raises(ValueError):
            strength_matrix(poisson2d(4), theta=1.0)

    def test_positive_offdiagonals_not_strong(self):
        A = sparse.csr_matrix(
            np.array([[2.0, 0.5, -1.0], [0.5, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        )
        S = strength_matrix(A, 0.25)
        assert S[0, 1] == 0.0
        assert S[0, 2] != 0.0

    def test_aggressive_strength_is_distance_two(self):
        # Path graph: 0-1-2-3; S^2+S connects 0 to 2.
        A = sparse.csr_matrix(
            sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], (5, 5))
        )
        S = strength_matrix(A, 0.25)
        S2 = aggressive_strength(S)
        assert S2[0, 2] != 0
        assert S2[0, 3] == 0
        assert np.all(S2.diagonal() == 0)


class TestPMIS:
    def _check_valid_cf(self, S, cf):
        G = (S + S.T).tocsr()
        cpts = np.flatnonzero(cf == C_POINT)
        # Independence: no two C-points strongly connected.
        sub = G[cpts][:, cpts]
        assert sub.nnz == 0
        # Every F-point with strong connections sees at least one C point
        # within distance one of the undirected strong graph... PMIS only
        # guarantees maximality of the independent set:
        fpts = np.flatnonzero(cf == F_POINT)
        if fpts.size:
            reach = np.asarray(
                G[fpts][:, cpts].sum(axis=1)
            ).ravel()
            deg = np.asarray(G[fpts].sum(axis=1)).ravel()
            # F points with any strong neighbor must touch a C point OR
            # have had all neighbors assigned F by maximality violations —
            # the latter cannot happen for a maximal independent set.
            assert np.all((reach > 0) | (deg == 0))

    def test_valid_on_isotropic_poisson(self):
        A = poisson2d(12)
        S = strength_matrix(A, 0.25)
        cf = pmis_coarsen(S, np.random.default_rng(0))
        assert np.all((cf == C_POINT) | (cf == F_POINT))
        self._check_valid_cf(S, cf)

    def test_valid_on_anisotropic(self):
        A = poisson2d(12, eps=1e-3)
        S = strength_matrix(A, 0.25)
        cf = pmis_coarsen(S, np.random.default_rng(1))
        self._check_valid_cf(S, cf)

    def test_isolated_rows_become_f(self):
        """hypre's SF_PT rule: a row with no strong connection in either
        direction is F with an empty interpolation row, and an operator of
        nothing else is one level, solved by the coarse LU."""
        A = sparse.block_diag([poisson2d(4), 3.0 * sparse.eye(5)]).tocsr()
        S = strength_matrix(A, 0.25)
        cf = pmis_coarsen(S, np.random.default_rng(0))
        assert np.all(cf[16:] == F_POINT)
        assert np.any(cf[:16] == C_POINT)
        for interp in ALL_INTERPS:
            P = interp(A, S, cf)
            assert np.all(np.diff(P.indptr)[16:] == 0)
            assert np.all(np.diff(P.indptr)[:16] > 0)

        w, M = par(3.0 * sparse.eye(100).tocsr())
        h = AMGHierarchy(M, AMGOptions(coarse_size=10))
        assert h.level_sizes() == [(100, 100)]
        b = M.new_vector(np.arange(100.0))
        assert np.allclose(AMGPreconditioner(h).apply(b).data, b.data / 3.0)

    def test_second_pass_keeps_isolated_c_points(self):
        """A first-pass C-point with no C-point within distance two is the
        only coarse point of its neighbourhood: the aggressive pass must not
        apply the first pass's rule to it."""
        # Two far-apart C-points of a path graph, coupled to nothing in S^2+S.
        n = 9
        S = sparse.diags([1.0, 1.0], [-1, 1], (n, n)).tocsr()
        cf1 = np.full(n, F_POINT, dtype=np.int8)
        cf1[[1, 7]] = C_POINT
        cf2 = second_pass_aggressive(
            aggressive_strength(S), cf1, np.random.default_rng(0)
        )
        assert np.array_equal(cf2, cf1)

    def test_coarsening_reduces_size(self):
        A = poisson2d(16)
        S = strength_matrix(A, 0.25)
        cf = pmis_coarsen(S, np.random.default_rng(2))
        frac = (cf == C_POINT).sum() / cf.size
        assert 0.1 < frac < 0.6

    def test_aggressive_second_pass_subset(self):
        A = poisson2d(16)
        S = strength_matrix(A, 0.25)
        rng = np.random.default_rng(3)
        cf1 = pmis_coarsen(S, rng)
        cf2 = second_pass_aggressive(aggressive_strength(S), cf1, rng)
        c1 = set(np.flatnonzero(cf1 == C_POINT))
        c2 = set(np.flatnonzero(cf2 == C_POINT))
        assert c2 <= c1
        assert len(c2) < len(c1)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000), nx=st.integers(4, 14))
    def test_property_mis_independence(self, seed, nx):
        A = poisson2d(nx)
        S = strength_matrix(A, 0.25)
        cf = pmis_coarsen(S, np.random.default_rng(seed))
        G = (S + S.T).tocsr()
        cpts = np.flatnonzero(cf == C_POINT)
        assert G[cpts][:, cpts].nnz == 0


ALL_INTERPS = [
    direct_interpolation,
    bamg_direct_interpolation,
    mm_ext_interpolation,
    mm_ext_i_interpolation,
]


class TestInterpolation:
    @pytest.mark.parametrize("interp", ALL_INTERPS)
    def test_c_rows_are_identity(self, interp):
        A = poisson2d(10)
        S = strength_matrix(A, 0.25)
        cf = pmis_coarsen(S, np.random.default_rng(0))
        P = interp(A, S, cf)
        cpts = np.flatnonzero(cf == C_POINT)
        for k, c in enumerate(cpts[:20]):
            row = P[c].toarray().ravel()
            assert row[k] == 1.0
            assert np.count_nonzero(row) == 1

    @pytest.mark.parametrize(
        "interp", [direct_interpolation, bamg_direct_interpolation]
    )
    def test_rowsum_one_on_zero_rowsum_rows(self, interp):
        # Laplacian with zero row sums (periodic-like closure).
        n = 64
        A = poisson2d(8).tolil()
        rs = np.asarray(A.sum(axis=1)).ravel()
        A.setdiag(A.diagonal() - rs)  # force exact zero row sums
        A = A.tocsr()
        S = strength_matrix(A, 0.25)
        cf = pmis_coarsen(S, np.random.default_rng(0))
        P = interp(A, S, cf)
        fpts = np.flatnonzero(cf == F_POINT)
        rows = np.asarray(P.sum(axis=1)).ravel()
        good = np.abs(rows[fpts] - 1.0) < 1e-10
        # Rows with strong C neighbors must reproduce constants exactly.
        n_cs = np.diff(
            strength_matrix(A, 0.25)[fpts][
                :, np.flatnonzero(cf == C_POINT)
            ].tocsr().indptr
        )
        assert np.all(good[n_cs > 0])

    def test_mm_ext_covers_f_points_without_c_neighbors(self):
        # Anisotropic problem where PMIS leaves F-points with no strong C
        # neighbor: MM-ext must still give them nonzero weights through
        # distance-two paths whenever such paths exist.
        A = poisson2d(14, eps=1e-4)
        S = strength_matrix(A, 0.25)
        cf = pmis_coarsen(S, np.random.default_rng(5))
        P_mm = mm_ext_interpolation(A, S, cf)
        P_dir = direct_interpolation(A, S, cf)
        fpts = np.flatnonzero(cf == F_POINT)
        nnz_mm = np.diff(P_mm.tocsr().indptr)[fpts]
        nnz_dir = np.diff(P_dir.tocsr().indptr)[fpts]
        assert nnz_mm.sum() >= nnz_dir.sum()

    def test_truncation_limits_row_size_and_preserves_rowsum(self):
        A = poisson2d(12)
        S = strength_matrix(A, 0.25)
        cf = pmis_coarsen(S, np.random.default_rng(0))
        P = mm_ext_interpolation(A, S, cf)
        Pt = truncate_interpolation(P, max_elements=2)
        assert np.diff(Pt.indptr).max() <= 2
        rs_before = np.asarray(P.sum(axis=1)).ravel()
        rs_after = np.asarray(Pt.sum(axis=1)).ravel()
        assert np.allclose(rs_before, rs_after, atol=1e-12)

    def test_truncation_keeps_largest(self):
        P = sparse.csr_matrix(np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]]))
        Pt = truncate_interpolation(P, max_elements=1).toarray()
        assert Pt[0, 0] != 0 and Pt[0, 1] == 0
        assert Pt[1, 2] != 0

    def test_truncation_empty_matrix(self):
        P = sparse.csr_matrix((3, 2))
        Pt = truncate_interpolation(P)
        assert Pt.nnz == 0


class TestHierarchy:
    def test_levels_shrink(self):
        w, M = par(poisson2d(24))
        h = AMGHierarchy(M, AMGOptions(agg_levels=0, interp="direct"))
        sizes = [lvl.A.shape[0] for lvl in h.levels]
        assert all(b < a for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] <= 64

    def test_aggressive_coarsening_reduces_complexity(self):
        w1, M1 = par(poisson2d(24))
        h_no = AMGHierarchy(M1, AMGOptions(agg_levels=0, interp="mm_ext"))
        w2, M2 = par(poisson2d(24))
        h_agg = AMGHierarchy(M2, AMGOptions(agg_levels=2, interp="mm_ext"))
        # Aggressive coarsening yields a smaller level-1 grid.
        assert h_agg.levels[1].A.shape[0] < h_no.levels[1].A.shape[0]

    @pytest.mark.parametrize(
        "workload,nranks", [("turbine_tiny", 2), ("turbine_low", 12)]
    )
    def test_assembled_pressure_hierarchy_shape(
        self, assemble_tiny_pressure, workload, nranks
    ):
        """ROADMAP 1(d): the hierarchy of the *assembled* pressure operator
        (unit-diagonal Dirichlet / fringe / hole rows included) coarsens
        geometrically down to ``coarse_size`` and never carries a
        constraint row onto a coarse level."""
        _w, A, _rhs = assemble_tiny_pressure(nranks, workload)
        assert np.any(np.diff(A.A.indptr) == 1)  # constraint rows present
        h = AMGHierarchy(A)
        stats = h.stats()
        rows = [lvl["rows"] for lvl in stats.levels]
        assert stats.num_levels > 1
        for lvl in h.levels[1:]:
            assert np.all(np.diff(lvl.A.A.indptr) > 1)
        assert all(c <= 0.6 * f for f, c in zip(rows, rows[1:]))
        assert rows[-1] <= h.options.coarse_size
        assert stats.operator_complexity < 2.3

    def test_complexities_reported(self):
        w, M = par(poisson2d(16))
        h = AMGHierarchy(M)
        assert h.operator_complexity() >= 1.0
        assert h.grid_complexity() >= 1.0
        assert len(h.level_sizes()) == h.num_levels

    @pytest.mark.parametrize(
        "agg_levels,passes",
        [
            (0, {"amg_strength": 1, "amg_pmis": 4, "amg_interp": 3}),
            (
                1,
                {
                    "amg_strength": 1,
                    "amg_strength2": 2,
                    "amg_pmis": 4 + 2,
                    "amg_interp": 3,
                },
            ),
        ],
    )
    def test_setup_charges_the_passes_its_kernels_defer_to_it(
        self, agg_levels, passes
    ):
        # pmis_coarsen, aggressive_strength and the interpolation builders
        # record nothing themselves (RL005 pragmas: "the hierarchy charges
        # it at the call site").  This is that charge, for the one
        # coarsening of a two-level hierarchy: 2 flops per nonzero of the
        # level operator per pass.
        w, M = par(poisson2d(16))
        with w.phase_scope("setup"):
            h = AMGHierarchy(
                M, AMGOptions(agg_levels=agg_levels, max_levels=2)
            )
        assert h.num_levels == 2
        charged = {
            k: w.ops.kernel_tally("setup", k).flops / (2.0 * M.nnz)
            for k in w.ops.kernels("setup")
            if k.startswith("amg_") and k != "amg_setup_overhead"
        }
        assert charged == passes

    def test_coarse_offsets_consistent(self):
        w, M = par(poisson2d(20), nranks=3)
        h = AMGHierarchy(M)
        for lvl in h.levels:
            assert lvl.A.row_offsets[-1] == lvl.A.shape[0]

    def test_galerkin_property(self):
        """A_{l+1} == R A_l P exactly."""
        w, M = par(poisson2d(16))
        h = AMGHierarchy(M, AMGOptions(agg_levels=0, interp="direct"))
        for lvl, nxt in zip(h.levels, h.levels[1:]):
            ref = (lvl.R.A @ lvl.A.A @ lvl.P.A).toarray()
            assert np.allclose(nxt.A.A.toarray(), ref, atol=1e-10)

    def test_unknown_options_rejected(self):
        w, M = par(poisson2d(8))
        with pytest.raises(ValueError):
            AMGHierarchy(M, AMGOptions(interp="bogus"))
        w, M = par(poisson2d(8))
        with pytest.raises(ValueError):
            AMGHierarchy(M, AMGOptions(smoother="bogus"))

    def test_smoother_gets_the_options_its_registry_row_declares(self):
        options = dict(
            smoother_inner=2, smoother_outer=3, smoother_symmetric=True
        )
        expected = {
            "two_stage_gs": dict(
                inner_sweeps=2, outer_sweeps=3, symmetric=True
            ),
            "jacobi": dict(sweeps=3, omega=0.8),
            "l1_jacobi": dict(sweeps=3),
            "chebyshev": dict(degree=3),
        }
        assert set(expected) == set(SMOOTHERS)
        for name, attrs in expected.items():
            w, M = par(poisson2d(16))
            h = AMGHierarchy(M, AMGOptions(smoother=name, **options))
            built = {a: getattr(h.levels[0].smoother, a) for a in attrs}
            assert built == attrs, name


class TestVCycle:
    @pytest.mark.parametrize("interp", ["direct", "mm_ext", "mm_ext_i"])
    def test_standalone_vcycle_converges(self, interp):
        w, M = par(poisson2d(20))
        h = AMGHierarchy(M, AMGOptions(interp=interp, agg_levels=1))
        pc = AMGPreconditioner(h)
        rng = np.random.default_rng(0)
        b = M.new_vector(rng.standard_normal(M.shape[0]))
        x, hist = pc.solve(b, tol=1e-8, max_cycles=60)
        assert hist[-1] <= 1e-8
        # Convergence factor bounded away from 1 (direct interpolation with
        # aggressive coarsening is the slowest of the family, ~0.72 here).
        factors = [b / a for a, b in zip(hist[:-2], hist[1:-1]) if a > 0]
        assert np.median(factors) < 0.85

    def test_vcycle_on_anisotropic_problem(self):
        w, M = par(poisson2d(24, eps=1e-3))
        h = AMGHierarchy(M, AMGOptions(interp="mm_ext", smoother_inner=2))
        pc = AMGPreconditioner(h)
        b = M.new_vector(np.random.default_rng(1).standard_normal(M.shape[0]))
        _x, hist = pc.solve(b, tol=1e-6, max_cycles=80)
        assert hist[-1] <= 1e-6

    def test_apply_is_linear(self):
        w, M = par(poisson2d(12))
        h = AMGHierarchy(M)
        pc = AMGPreconditioner(h)
        rng = np.random.default_rng(2)
        r1 = M.new_vector(rng.standard_normal(M.shape[0]))
        r2 = M.new_vector(rng.standard_normal(M.shape[0]))
        z12 = pc.apply(M.new_vector(r1.data + 2.0 * r2.data))
        z1 = pc.apply(r1)
        z2 = pc.apply(r2)
        assert np.allclose(z12.data, z1.data + 2.0 * z2.data, atol=1e-9)

    def test_setup_and_cycle_record_work(self):
        w, M = par(poisson2d(16))
        with w.phase_scope("setup"):
            h = AMGHierarchy(M)
        pc = AMGPreconditioner(h)
        with w.phase_scope("cycle"):
            pc.apply(M.new_vector(np.ones(M.shape[0])))
        assert w.ops.total("setup").flops > 0
        assert w.ops.total("cycle").flops > 0
        assert w.traffic.message_count("cycle") > 0


def test_coarsening_rule_keeps_the_simulation_iteration_counts():
    """The end-to-end guard of the F-point rule, `tiny_r2_motion`'s shape:
    20 one-Picard steps of `turbine_tiny`@2.  Momentum and scalar never see
    AMG and must not move; pressure was 255 with the constraint rows on
    every level (256 under multi-threaded BLAS, whose dot products round
    differently) and is 252 (262) without them: parent + 5 % is the bound.
    Demoting isolated C-points in the second pass too reads 353."""
    from repro import NaluWindSimulation, SimulationConfig

    report = NaluWindSimulation(
        "turbine_tiny", SimulationConfig(nranks=2, picard_iterations=1)
    ).run(20)
    totals = {eq: sum(its) for eq, its in report.solve_iterations.items()}
    assert totals["momentum"] == 160 and totals["scalar"] == 40
    assert totals["pressure"] <= 268
