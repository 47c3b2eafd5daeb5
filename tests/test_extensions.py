"""Tests for the extension features: CG, Chebyshev, deterministic
assembly, and the exascale projection."""

import numpy as np
import pytest
from scipy import sparse

from repro.amg import AMGHierarchy, AMGOptions, AMGPreconditioner
from repro.assembly.local import SCATTER_MODES
from repro.comm import SimWorld
from repro.core import SimulationConfig
from repro.harness import paper_projection, project_capability
from repro.krylov import CG, GMRES
from repro.linalg import ParCSRMatrix
from repro.smoothers import ChebyshevSmoother, JacobiSmoother


def poisson2d(nx):
    T = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], (nx, nx))
    return (
        sparse.kron(sparse.eye(nx), T) + sparse.kron(T, sparse.eye(nx))
    ).tocsr()


def par(A, nranks=4):
    n = A.shape[0]
    w = SimWorld(nranks)
    offs = np.linspace(0, n, nranks + 1).astype(np.int64)
    return w, ParCSRMatrix(w, A, offs)


class TestCG:
    def test_converges_on_spd(self):
        A = poisson2d(16)
        w, M = par(A)
        rng = np.random.default_rng(0)
        x_true = rng.standard_normal(A.shape[0])
        b = M.new_vector(A @ x_true)
        res = CG(M, tol=1e-10, max_iters=1000).solve(b)
        assert res.converged
        assert np.allclose(res.x.data, x_true, atol=1e-6)

    def test_amg_preconditioned_cg_beats_plain(self):
        A = poisson2d(20)
        w1, M1 = par(A)
        b1 = M1.new_vector(np.ones(A.shape[0]))
        plain = CG(M1, tol=1e-8, max_iters=2000).solve(b1)
        w2, M2 = par(A)
        b2 = M2.new_vector(np.ones(A.shape[0]))
        # CG needs an SPD preconditioner: symmetric smoothing in the cycle.
        h = AMGHierarchy(
            M2,
            AMGOptions(smoother="two_stage_gs", smoother_symmetric=True,
                       smoother_inner=2),
        )
        pre = CG(M2, preconditioner=AMGPreconditioner(h), tol=1e-8).solve(b2)
        assert pre.converged
        assert pre.iterations < plain.iterations / 2

    def test_zero_rhs(self):
        A = poisson2d(6)
        w, M = par(A, nranks=2)
        res = CG(M).solve(M.new_vector(np.zeros(A.shape[0])))
        assert res.converged and res.iterations == 0

    def test_initial_guess(self):
        A = poisson2d(8)
        w, M = par(A)
        rng = np.random.default_rng(1)
        x_true = rng.standard_normal(A.shape[0])
        b = M.new_vector(A @ x_true)
        x0 = M.new_vector(x_true.copy())
        res = CG(M, tol=1e-8).solve(b, x0=x0)
        assert res.iterations == 0

    def test_reduction_count_two_per_iteration(self):
        A = poisson2d(10)
        w, M = par(A)
        b = M.new_vector(np.ones(A.shape[0]))
        before = w.traffic.collective_count()
        res = CG(M, tol=1e-6, max_iters=50).solve(b)
        colls = w.traffic.collective_count() - before
        # 2 dots + 1 norm per iteration, plus setup reductions.
        assert colls <= 3 * res.iterations + 5

    def test_jacobi_preconditioned(self):
        A = poisson2d(12)
        w, M = par(A)
        b = M.new_vector(np.ones(A.shape[0]))
        res = CG(M, preconditioner=JacobiSmoother(M), tol=1e-8, max_iters=500).solve(b)
        assert res.converged


class TestChebyshev:
    def test_smoother_contracts_high_frequencies(self):
        A = poisson2d(16)
        n = A.shape[0]
        w, M = par(A)
        sm = ChebyshevSmoother(M, degree=3)
        rng = np.random.default_rng(0)
        x_true = rng.standard_normal(n)
        b = M.new_vector(A @ x_true)
        x = M.new_vector(np.zeros(n))
        e0 = np.linalg.norm(x_true)
        for _ in range(6):
            sm.smooth(b, x)
        e1 = np.linalg.norm(x.data - x_true)
        assert e1 < e0

    def test_eigmax_estimate_bounds_spectrum(self):
        A = poisson2d(12)
        w, M = par(A)
        sm = ChebyshevSmoother(M)
        dinv_a = sparse.diags(1.0 / A.diagonal()) @ A
        true_max = np.abs(
            np.linalg.eigvals(dinv_a.toarray())
        ).max()
        assert sm.eig_max >= true_max * 0.95

    def test_degree_validation(self):
        A = poisson2d(4)
        w, M = par(A, nranks=1)
        with pytest.raises(ValueError):
            ChebyshevSmoother(M, degree=0)

    def test_amg_with_chebyshev_smoother_converges(self):
        A = poisson2d(20)
        w, M = par(A)
        h = AMGHierarchy(M, AMGOptions(smoother="chebyshev"))
        pc = AMGPreconditioner(h)
        b = M.new_vector(np.ones(A.shape[0]))
        res = GMRES(M, preconditioner=pc, tol=1e-8).solve(b)
        assert res.converged

    def test_apply_equals_smooth_from_zero(self):
        A = poisson2d(8)
        w, M = par(A, nranks=2)
        sm = ChebyshevSmoother(M, degree=4)
        r = M.new_vector(np.random.default_rng(3).standard_normal(A.shape[0]))
        z1 = sm.apply(r)
        x = M.new_vector(np.zeros(A.shape[0]))
        sm.smooth(r, x)
        assert np.allclose(z1.data, x.data)


class TestAssemblyModes:
    def _run(self, mode, nranks=3):
        from repro import NaluWindSimulation

        cfg = SimulationConfig(nranks=nranks, assembly_mode=mode)
        sim = NaluWindSimulation("turbine_tiny", cfg)
        sim.step()
        return sim

    @pytest.mark.parametrize("nranks", [1, 3])
    def test_all_modes_produce_same_fields(self, nranks):
        # At one rank the shared-RHS scatter is empty.
        sims = {m: self._run(m, nranks) for m in SCATTER_MODES}
        base = sims["atomic"].velocity
        assert np.allclose(
            sims["deterministic"].velocity, base, rtol=1e-10, atol=1e-12
        )

    def test_deterministic_mode_costs_more(self):
        s_at = self._run("atomic")
        s_det = self._run("deterministic")
        b_at = s_at.world.ops.kernel_total("asm_det_sort").bytes
        b_det = s_det.world.ops.kernel_total("asm_det_sort").bytes
        assert b_at == 0.0
        assert b_det > 0.0

    def test_invalid_mode_rejected(self):
        cfg = SimulationConfig(assembly_mode="bogus")
        with pytest.raises(ValueError):
            cfg.validate()


class TestCapabilityProjection:
    def test_paper_numbers_reproduced(self):
        rows = paper_projection()
        by_label = {r.label: r for r in rows}
        # Paper §6: ~4 billion nodes on full Summit; 20-30 billion for
        # exascale.
        assert by_label["full Summit"].mesh_nodes == pytest.approx(
            4.06e9, rel=0.02
        )
        assert 20e9 <= by_label["exascale (5x Summit)"].mesh_nodes <= 30e9
        assert by_label["full Summit"].peak_pflops == pytest.approx(200.0)

    def test_projection_scales_linearly(self):
        rows = project_capability(1000.0, 10, paper_scale=1.0)
        demo, summit, exa = rows
        assert demo.mesh_nodes == 1000.0
        assert exa.mesh_nodes == pytest.approx(5 * summit.mesh_nodes)
