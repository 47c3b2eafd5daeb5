"""Tests for Jacobi, hybrid GS, and two-stage GS / SGS2 (paper §4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.comm import SimWorld
from repro.linalg import ParCSRMatrix, ParVector
from repro.smoothers import (
    SMOOTHER_NAMES,
    HybridGS,
    JacobiSmoother,
    L1JacobiSmoother,
    TwoStageGS,
    make_smoother,
)


def poisson2d(nx):
    T = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], (nx, nx))
    return (sparse.kron(sparse.eye(nx), T) + sparse.kron(T, sparse.eye(nx))).tocsr()


def par(A, nranks=4):
    n = A.shape[0]
    w = SimWorld(nranks)
    offs = np.linspace(0, n, nranks + 1).astype(np.int64)
    return w, ParCSRMatrix(w, A, offs)


def spectral_radius_of_error_op(A, smoother, n, trials=6, sweeps=8, seed=0):
    """Estimate the error-propagation contraction via power iteration."""
    rng = np.random.default_rng(seed)
    x_true = rng.standard_normal(n)
    b = ParVector(smoother.A.world, smoother.A.row_offsets, A @ x_true)
    x = ParVector(smoother.A.world, smoother.A.row_offsets, np.zeros(n))
    e0 = np.linalg.norm(x_true)
    for _ in range(sweeps):
        smoother.smooth(b, x)
    e1 = np.linalg.norm(x.data - x_true)
    return (e1 / e0) ** (1.0 / sweeps)


class TestJacobi:
    def test_converges_on_poisson(self):
        A = poisson2d(8)
        w, M = par(A)
        sm = JacobiSmoother(M, omega=0.8)
        rho = spectral_radius_of_error_op(A, sm, A.shape[0])
        assert rho < 1.0

    def test_zero_diagonal_rejected(self):
        A = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        w, M = par(A, nranks=1)
        with pytest.raises(ValueError):
            JacobiSmoother(M)

    def test_apply_is_scaled_residual(self):
        A = poisson2d(4)
        w, M = par(A, nranks=2)
        sm = JacobiSmoother(M, omega=0.5, sweeps=1)
        r = M.new_vector(np.ones(A.shape[0]))
        z = sm.apply(r)
        assert np.allclose(z.data, 0.5 * r.data / A.diagonal())

    def test_l1_jacobi_unconditionally_contracts_on_spd(self):
        A = poisson2d(8)
        w, M = par(A)
        sm = L1JacobiSmoother(M)
        rho = spectral_radius_of_error_op(A, sm, A.shape[0])
        assert rho < 1.0


class TestTwoStageGS:
    def test_neumann_expansion_converges_to_exact_hybrid_gs(self):
        A = poisson2d(10)
        n = A.shape[0]
        w, M = par(A)
        b = M.new_vector(np.random.default_rng(0).standard_normal(n))
        exact = HybridGS(M).apply(b)
        errs = []
        for s in (0, 1, 2, 4, 16, 200):
            w2, M2 = par(A)
            b2 = M2.new_vector(b.data.copy())
            z = TwoStageGS(M2, inner_sweeps=s).apply(b2)
            errs.append(np.linalg.norm(z.data - exact.data))
        # Monotone improvement and exactness in the nilpotency limit.
        assert all(b <= a + 1e-14 for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-12

    def test_zero_inner_sweeps_is_jacobi(self):
        """Paper: 'this special case corresponds to Jacobi-Richardson'."""
        A = poisson2d(6)
        w, M = par(A, nranks=2)
        b = M.new_vector(np.ones(A.shape[0]))
        z = TwoStageGS(M, inner_sweeps=0).apply(b)
        assert np.allclose(z.data, b.data / A.diagonal())

    def test_single_rank_matches_true_gs(self):
        """With one rank, hybrid GS == classical global Gauss-Seidel."""
        A = poisson2d(6)
        n = A.shape[0]
        w, M = par(A, nranks=1)
        b = M.new_vector(np.random.default_rng(1).standard_normal(n))
        z = HybridGS(M).apply(b)
        # Reference forward solve (L+D) z = b.
        LD = sparse.tril(A).toarray()
        ref = np.linalg.solve(LD, b.data)
        assert np.allclose(z.data, ref, atol=1e-10)

    def test_more_ranks_weaker_smoother(self):
        """Hybrid relaxation degrades with rank count (block-Jacobi limit)."""
        A = poisson2d(12)
        n = A.shape[0]
        rhos = []
        for nranks in (1, 8):
            w, M = par(A, nranks=nranks)
            sm = TwoStageGS(M, inner_sweeps=4)
            rhos.append(spectral_radius_of_error_op(A, sm, n))
        assert rhos[1] > rhos[0]

    def test_symmetric_variant_contracts_faster(self):
        A = poisson2d(10)
        n = A.shape[0]
        w1, M1 = par(A)
        rho_f = spectral_radius_of_error_op(
            A, TwoStageGS(M1, inner_sweeps=2), n
        )
        w2, M2 = par(A)
        rho_s = spectral_radius_of_error_op(
            A, TwoStageGS(M2, inner_sweeps=2, symmetric=True), n
        )
        assert rho_s < rho_f

    def test_invalid_sweep_counts(self):
        A = poisson2d(4)
        w, M = par(A, nranks=1)
        with pytest.raises(ValueError):
            TwoStageGS(M, inner_sweeps=-1)
        with pytest.raises(ValueError):
            TwoStageGS(M, outer_sweeps=0)

    def test_outer_sweeps_communicate(self):
        A = poisson2d(8)
        w, M = par(A)
        sm = TwoStageGS(M, inner_sweeps=1, outer_sweeps=2)
        with w.phase_scope("smooth"):
            sm.apply(M.new_vector(np.ones(A.shape[0])))
        # The second outer iteration needs a full residual: halo messages.
        assert w.traffic.message_count("smooth") > 0

    def test_preconditioner_application_with_zero_guess(self):
        """apply(r) must equal smooth(b=r, x=0)."""
        A = poisson2d(6)
        w, M = par(A, nranks=2)
        r = M.new_vector(np.random.default_rng(5).standard_normal(A.shape[0]))
        sm = TwoStageGS(M, inner_sweeps=2, outer_sweeps=2, symmetric=True)
        z1 = sm.apply(r)
        x = M.new_vector(np.zeros(A.shape[0]))
        sm.smooth(r, x)
        assert np.allclose(z1.data, x.data, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 500), s=st.integers(0, 3))
    def test_property_inner_sweeps_match_neumann_series(self, seed, s):
        """g after s sweeps == degree-s Neumann expansion applied to r."""
        rng = np.random.default_rng(seed)
        n = 20
        A = sparse.random(n, n, density=0.3, random_state=seed, format="csr")
        A = A + sparse.diags(np.abs(A).sum(axis=1).A1 + 1.0)
        w, M = par(A.tocsr(), nranks=1)
        r = rng.standard_normal(n)
        sm = TwoStageGS(M, inner_sweeps=s)
        g = sm._jr_solve(r, lower=True)
        D = A.diagonal()
        L = sparse.tril(A, k=-1).tocsr()
        # Neumann: sum_{j=0..s} (-D^-1 L)^j D^-1 r.
        term = r / D
        ref = term.copy()
        for _ in range(s):
            term = -(L @ term) / D
            ref += term
        assert np.allclose(g, ref, atol=1e-10)


class TestSGS2:
    def test_sgs2_gmres_under_five_iterations(self):
        """Paper §4.2: SGS2(2,2) gives GMRES convergence in < 5 iterations
        on diagonally dominant transport systems."""
        from repro.krylov import GMRES

        rng = np.random.default_rng(0)
        n = 400
        # Advection-diffusion-like: diagonally dominant nonsymmetric.
        A = poisson2d(20) * 0.1
        A = A + sparse.diags(np.full(n, 4.0))
        A = A + sparse.random(n, n, density=0.01, random_state=1) * 0.3
        A = A.tocsr()
        w, M = par(A)
        b = M.new_vector(rng.standard_normal(n))
        res = GMRES(
            M, preconditioner=make_smoother("sgs2", M), tol=1e-5
        ).solve(b)
        assert res.converged
        assert res.iterations < 5

    def test_sgs2_factory_defaults(self):
        A = poisson2d(4)
        w, M = par(A, nranks=1)
        sm = make_smoother("sgs2", M)
        assert sm.inner_sweeps == 2
        assert sm.outer_sweeps == 2
        assert sm.symmetric


@pytest.mark.parametrize("name", SMOOTHER_NAMES)
def test_apply_is_smooth_from_zero_without_the_first_residual(name):
    """The zero-guess form the V-cycle's first pre-sweep uses: same result
    (up to the sign of zero), one SpMV + axpby + halo round cheaper."""
    A = poisson2d(8)
    rhs = np.random.default_rng(5).standard_normal(A.shape[0])

    def ledger(call):
        w, M = par(A)
        sm = make_smoother(name, M)
        b = M.new_vector(rhs.copy())
        with w.phase_scope("t"):
            out = call(M, sm, b, b.like(np.zeros(b.n)))
        tallies = {}
        for kernel in w.ops.kernels("t"):
            t = w.ops.kernel_tally("t", kernel)
            tallies[kernel] = (t.flops, t.bytes, t.launches)
        return out.data, tallies, w.traffic.message_count("t")

    z, apply_ops, apply_msgs = ledger(lambda M, sm, b, x: sm.apply(b))
    x, smooth_ops, smooth_msgs = ledger(lambda M, sm, b, x: sm.smooth(b, x))
    _r, residual_ops, halo_round = ledger(lambda M, sm, b, x: M.residual(b, x))

    assert np.array_equal(z, x)
    assert set(residual_ops) == {"spmv", "axpby"} and halo_round > 0
    assert smooth_msgs - apply_msgs == halo_round
    assert set(smooth_ops) == set(apply_ops) | set(residual_ops)
    for kernel, total in smooth_ops.items():
        rest = np.subtract(total, residual_ops.get(kernel, (0, 0, 0)))
        assert tuple(rest) == apply_ops.get(kernel, (0, 0, 0)), kernel
