"""Tests for GMRES and the low-synchronization Gram-Schmidt kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.comm import SimWorld
from repro.krylov import GMRES, batched_dots, orthogonalize
from repro.linalg import ParCSRMatrix, ParVector
from repro.smoothers import JacobiSmoother, make_smoother


def poisson2d(nx):
    T = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], (nx, nx))
    return (sparse.kron(sparse.eye(nx), T) + sparse.kron(T, sparse.eye(nx))).tocsr()


def nonsym(n, seed=0):
    rng = np.random.default_rng(seed)
    A = sparse.random(n, n, density=0.08, random_state=seed, format="csr")
    A = A + sparse.diags(np.abs(A).sum(axis=1).A1 + 1.0)
    return A.tocsr()


def blocks(n, nranks=2):
    """Even block-row offsets of ``n`` rows over ``nranks`` ranks."""
    return np.linspace(0, n, nranks + 1).astype(np.int64)


def par(A, nranks=4):
    w = SimWorld(nranks)
    return w, ParCSRMatrix(w, A, blocks(A.shape[0], nranks))


class TestGramSchmidt:
    def test_batched_dots_values(self):
        w = SimWorld(2)
        rng = np.random.default_rng(0)
        V = rng.standard_normal((20, 4))
        x = rng.standard_normal(20)
        d = batched_dots(w, V, x, blocks(20))
        assert np.allclose(d, V.T @ x)
        assert w.traffic.collective_count() == 1

    @pytest.mark.parametrize("variant", ["mgs", "cgs2", "one_reduce"])
    def test_orthogonalize_produces_orthogonal_vector(self, variant):
        rng = np.random.default_rng(1)
        w = SimWorld(2)
        V, _ = np.linalg.qr(rng.standard_normal((50, 6)))
        x = rng.standard_normal(50)
        wvec = x.copy()
        h, beta = orthogonalize(w, V, wvec, blocks(50), variant)
        assert np.abs(V.T @ wvec).max() < 1e-10
        assert beta == pytest.approx(np.linalg.norm(wvec), rel=1e-6)
        # Reconstruction: x == V h + w.
        assert np.allclose(V @ h + wvec, x, atol=1e-10)

    @pytest.mark.parametrize("variant", ["mgs", "cgs2", "one_reduce"])
    def test_bits_do_not_depend_on_basis_capacity(self, variant):
        """A basis held in the first k columns of a column-major buffer
        gives the same bits at every capacity, full width included, so
        GMRES may grow its buffer with the Krylov space without moving a
        number."""
        rng = np.random.default_rng(4)
        n = 400
        for k in (1, 2, 3, 4, 7, 8, 9, 16, 17, 50):
            Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
            x = rng.standard_normal(n)
            out = set()
            for cap in (k, k + 1, 2 * k + 1, 64):
                buf = np.zeros((n, cap), order="F")
                buf[:, :k] = Q
                wvec = x.copy()
                h, beta = orthogonalize(
                    SimWorld(2), buf[:, :k], wvec, blocks(n), variant
                )
                out.add((h.tobytes(), beta, wvec.tobytes()))
            assert len(out) == 1, k

    def test_empty_basis(self):
        w = SimWorld(2)
        x = np.array([3.0, 4.0])
        h, beta = orthogonalize(
            w, np.zeros((2, 0)), x.copy(), blocks(2), "one_reduce"
        )
        assert h.size == 0
        assert beta == pytest.approx(5.0)

    def test_unknown_variant(self):
        w = SimWorld(1)
        with pytest.raises(ValueError):
            orthogonalize(w, np.zeros((3, 1)), np.zeros(3), blocks(3, 1), "qr")

    def test_reduction_count_ordering(self):
        """one_reduce <= cgs2 <= mgs reductions per Arnoldi step."""
        counts = {}
        for variant in ("mgs", "cgs2", "one_reduce"):
            w = SimWorld(4)
            rng = np.random.default_rng(0)
            V, _ = np.linalg.qr(rng.standard_normal((64, 8)))
            x = rng.standard_normal(64)
            orthogonalize(w, V, x, blocks(64, 4), variant)
            counts[variant] = w.traffic.collective_count()
        assert counts["one_reduce"] <= counts["cgs2"] <= counts["mgs"]
        assert counts["one_reduce"] == 1


class TestGMRES:
    @pytest.mark.parametrize("variant", ["mgs", "cgs2", "one_reduce"])
    def test_converges_unpreconditioned(self, variant):
        A = nonsym(150, seed=2)
        w, M = par(A)
        rng = np.random.default_rng(0)
        x_true = rng.standard_normal(150)
        b = M.new_vector(A @ x_true)
        res = GMRES(M, tol=1e-10, gs_variant=variant, max_iters=150).solve(b)
        assert res.converged
        assert np.allclose(res.x.data, x_true, atol=1e-6)

    def test_true_residual_matches_reported(self):
        A = nonsym(100, seed=3)
        w, M = par(A)
        b = M.new_vector(np.random.default_rng(1).standard_normal(100))
        res = GMRES(M, tol=1e-8).solve(b)
        true = np.linalg.norm(b.data - A @ res.x.data)
        assert true == pytest.approx(res.residual_norm, rel=1e-6)

    def test_right_preconditioning_reduces_iterations(self):
        A = poisson2d(16)
        w1, M1 = par(A)
        b1 = M1.new_vector(np.ones(A.shape[0]))
        plain = GMRES(M1, tol=1e-8, max_iters=400, restart=200).solve(b1)
        w2, M2 = par(A)
        b2 = M2.new_vector(np.ones(A.shape[0]))
        pre = GMRES(
            M2, preconditioner=make_smoother("sgs2", M2), tol=1e-8,
            max_iters=400
        ).solve(b2)
        assert pre.converged
        assert pre.iterations < plain.iterations

    def test_zero_rhs(self):
        A = nonsym(30)
        w, M = par(A, nranks=2)
        res = GMRES(M).solve(M.new_vector(np.zeros(30)))
        assert res.converged
        assert res.iterations == 0
        assert np.all(res.x.data == 0)

    def test_initial_guess_honored(self):
        A = nonsym(60, seed=5)
        w, M = par(A)
        rng = np.random.default_rng(0)
        x_true = rng.standard_normal(60)
        b = M.new_vector(A @ x_true)
        x0 = M.new_vector(x_true + 1e-8 * rng.standard_normal(60))
        res = GMRES(M, tol=1e-6).solve(b, x0=x0)
        assert res.iterations <= 2

    def test_restart_still_converges(self):
        A = poisson2d(12)
        w, M = par(A)
        b = M.new_vector(np.ones(A.shape[0]))
        res = GMRES(
            M,
            preconditioner=JacobiSmoother(M),
            tol=1e-8,
            restart=10,
            max_iters=500,
        ).solve(b)
        assert res.converged

    def test_max_iters_reported_unconverged(self):
        A = poisson2d(16)
        w, M = par(A)
        b = M.new_vector(np.ones(A.shape[0]))
        res = GMRES(M, tol=1e-14, max_iters=3).solve(b)
        assert not res.converged
        assert res.iterations == 3

    def test_residual_history_monotone_within_cycle(self):
        A = nonsym(100, seed=7)
        w, M = par(A)
        b = M.new_vector(np.random.default_rng(2).standard_normal(100))
        res = GMRES(M, tol=1e-10, restart=100).solve(b)
        h = res.residual_history
        assert all(b <= a * (1 + 1e-12) for a, b in zip(h[1:-1], h[2:]))

    def test_basis_grows_but_stays_wider_than_what_it_orthogonalizes(
        self, monkeypatch
    ):
        """The host basis starts at 8 columns and doubles on demand; it is
        column-major, so every slice handed to ``orthogonalize`` is
        contiguous."""
        import repro.krylov.gmres as gmres_module

        seen = []

        def spy(world, V, w, offsets, variant):
            assert V.flags.f_contiguous
            seen.append((V.shape[1], V.base.shape[1]))
            return orthogonalize(world, V, w, offsets, variant)

        monkeypatch.setattr(gmres_module, "orthogonalize", spy)
        A = poisson2d(32)
        w, M = par(A)
        b = M.new_vector(np.ones(A.shape[0]))
        res = GMRES(M, tol=1e-14, max_iters=45, restart=40).solve(b)
        assert res.iterations == 45
        widths = [capacity for _k, capacity in seen]
        # 40 iterations in a 41-column cycle, then 5 in a 6-column one.
        assert sorted(set(widths)) == [6, 8, 16, 32, 41]
        assert all(k < capacity for k, capacity in seen)

    def test_first_cycle_solution_does_not_depend_on_restart(self):
        """A solve that converges inside its first cycle returns the same
        bits whether the cycle could hold one more vector or 60."""
        A = poisson2d(12)
        w, M = par(A)
        b = M.new_vector(np.ones(A.shape[0]))
        long = GMRES(M, tol=1e-8, restart=60).solve(b)
        assert long.converged and long.iterations < 60
        short = GMRES(M, tol=1e-8, restart=long.iterations + 1).solve(b)
        assert short.iterations == long.iterations
        assert short.x.data.tobytes() == long.x.data.tobytes()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 200), nranks=st.integers(1, 5))
    def test_property_solution_independent_of_rank_count(self, seed, nranks):
        """Unpreconditioned GMRES arithmetic does not depend on the
        decomposition (the simulator exchanges exact values)."""
        A = nonsym(40, seed=seed)
        rng = np.random.default_rng(seed)
        bdat = rng.standard_normal(40)
        w, M = par(A, nranks=nranks)
        res = GMRES(M, tol=1e-10, max_iters=80).solve(
            M.new_vector(bdat.copy())
        )
        w1, M1 = par(A, nranks=1)
        ref = GMRES(M1, tol=1e-10, max_iters=80).solve(
            M1.new_vector(bdat.copy())
        )
        assert np.allclose(res.x.data, ref.x.data, atol=1e-8)


class TestGivensBreakdown:
    """Regression: the denom == 0 breakdown path used to keep the
    degenerate column (k = j + 1 with H[j, j] = 0), so the back
    substitution divided by zero and poisoned the solution with NaN."""

    def test_breakdown_keeps_solution_finite(self):
        # b lies in the operator's null direction: the first Arnoldi
        # vector maps to zero, denom = hypot(0, 0) = 0 at j = 0.
        A = sparse.csr_matrix(np.array([[0.0, 0.0], [0.0, 1.0]]))
        w, M = par(A, nranks=1)
        b = M.new_vector(np.array([1.0, 0.0]))
        res = GMRES(M, tol=1e-10, max_iters=50).solve(b)
        assert np.all(np.isfinite(res.x.data))
        assert np.isfinite(res.residual_norm)
        assert not res.converged
        # The true residual is reported: x stayed at 0, so r = b.
        assert res.residual_norm == pytest.approx(1.0)

    def test_breakdown_terminates_instead_of_restart_looping(self):
        # With no progress possible, a restart would rebuild the same
        # degenerate Krylov space forever; the solve must return.
        A = sparse.csr_matrix(np.zeros((3, 3)))
        w, M = par(A, nranks=1)
        b = M.new_vector(np.array([1.0, 2.0, 3.0]))
        res = GMRES(M, tol=1e-12, max_iters=10_000).solve(b)
        assert not res.converged
        assert np.all(np.isfinite(res.x.data))

    def test_nan_rhs_returns_promptly(self):
        # A poisoned RHS cannot converge; the solver reports it without
        # spinning NaN arithmetic through max_iters.
        A = poisson2d(5)
        w, M = par(A)
        data = np.ones(25)
        data[3] = np.nan
        res = GMRES(M, max_iters=500).solve(M.new_vector(data))
        assert not res.converged
        assert res.iterations == 0

    def test_nan_operand_stops_cg(self):
        from repro.krylov import CG

        A = poisson2d(5)
        w, M = par(A)
        data = np.ones(25)
        data[3] = np.nan
        res = CG(M, max_iters=500).solve(M.new_vector(data))
        assert not res.converged
        assert res.iterations <= 1
