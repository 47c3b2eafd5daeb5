"""Communication-avoiding contracts: reduction counts and overlap parity.

Two executable contracts from the paper's solver chapter (§4.2-§4.3):

* every Krylov kernel charges an *exact* number of allreduces per
  iteration — mgs ``j+1``, cgs2 ``3``, one-reduce ``1`` per Arnoldi
  step, GMRES itself one norm per restart cycle on top; CG
  ``2``/iteration; pipelined CG ``1``/iteration; Chebyshev none —
  pinned here against :class:`~repro.comm.traffic.TrafficLog` so a
  hidden reduction cannot ship silently again.  These measured counts
  are the only verifier of the ``@reduction_contract`` declarations:
  the convergent solves below, then one row per early exit and
  degenerate branch of every decorated kernel (``CONTRACT_PINS``);
* the split halo exchange (``matvec(overlap=True)``) is a *scheduling*
  change only: results stay bitwise identical to the synchronous path on
  every workload, including under injected message drops and corruption
  handled by the bounded retry protocol.
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from scipy import sparse

import repro
from repro.comm import SimWorld
from repro.core.config import SolverConfig
from repro.krylov import (
    CG,
    GMRES,
    PipelinedCG,
    make_krylov_solver,
    orthogonalize,
)
from repro.linalg import ParCSRMatrix
from repro.resilience.injection import FaultInjector, FaultSpec
from repro.smoothers import make_smoother
from repro.smoothers.chebyshev import ChebyshevSmoother


def poisson2d(nx):
    T = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], (nx, nx))
    return (
        sparse.kron(sparse.eye(nx), T) + sparse.kron(T, sparse.eye(nx))
    ).tocsr()


def nonsym(n, seed=0):
    rng = np.random.default_rng(seed)
    A = sparse.random(n, n, density=0.08, random_state=seed, format="csr")
    A = A + sparse.diags(np.abs(A).sum(axis=1).A1 + 1.0)
    return A.tocsr()


def par(A, nranks=4):
    n = A.shape[0]
    w = SimWorld(nranks)
    offs = np.linspace(0, n, nranks + 1).astype(np.int64)
    return w, ParCSRMatrix(w, A, offs)


@pytest.fixture(scope="module")
def pressure_system(assemble_tiny_pressure):
    """Assembled pressure-Poisson matrix from the tiny turbine mesh."""
    return assemble_tiny_pressure(3)


class TestReductionContracts:
    """Exact allreduce counts, pinned per kernel against the TrafficLog."""

    @pytest.mark.parametrize("j", [1, 3, 6])
    def test_orthogonalize_counts(self, j):
        expected = {"mgs": j + 1, "cgs2": 3, "one_reduce": 1}
        for variant, count in expected.items():
            w = SimWorld(2)
            rng = np.random.default_rng(0)
            V, _ = np.linalg.qr(rng.standard_normal((64, j)))
            x = rng.standard_normal(64)
            orthogonalize(w, V, x, variant)
            assert w.traffic.collective_count() == count, variant

    def test_cg_two_reductions_per_iteration(self):
        A = poisson2d(12)
        w, M = par(A)
        b = M.new_vector(np.ones(A.shape[0]))
        res = CG(M, tol=1e-8, max_iters=300).solve(b)
        assert res.converged
        # bnorm + initial fused (rz, ||r||^2) + per iteration (p.Ap +
        # fused pair).
        assert w.traffic.collective_count() == 2 + 2 * res.iterations

    def test_pipelined_cg_one_reduction_per_iteration(self):
        A = poisson2d(12)
        w, M = par(A)
        b = M.new_vector(np.ones(A.shape[0]))
        res = PipelinedCG(M, tol=1e-8, max_iters=300).solve(b)
        assert res.converged
        # bnorm + one fused (gamma, delta, ||r||^2) triple per
        # iteration, plus the triple evaluated at the converged step.
        assert w.traffic.collective_count() == 2 + res.iterations

    @pytest.mark.parametrize("exit_kind", ["converged", "max_iters"])
    @pytest.mark.parametrize("variant", ["mgs", "cgs2", "one_reduce"])
    def test_gmres_reductions_per_variant_and_exit(self, variant, exit_kind):
        A = poisson2d(8)
        w, M = par(A)
        b = M.new_vector(np.ones(A.shape[0]))
        kw = {
            "converged": {"tol": 1e-8, "max_iters": 200, "restart": 4},
            "max_iters": {"tol": 1e-30, "max_iters": 7, "restart": 3},
        }[exit_kind]
        res = GMRES(M, gs_variant=variant, **kw).solve(b)
        assert res.converged == (exit_kind == "converged")
        # The history has one entry per Arnoldi step and one per residual
        # norm: one entering each cycle, one more on the way out (at the
        # top of the loop when converged, below the last cycle at
        # max_iters).
        iters, restart = res.iterations, kw["restart"]
        cycles = len(res.residual_history) - iters - 1
        assert cycles >= 2
        steps = [restart] * (cycles - 1) + [iters - restart * (cycles - 1)]
        ortho = {
            "mgs": sum(j + 2 for k in steps for j in range(k)),
            "cgs2": 3 * iters,
            "one_reduce": iters,
        }[variant]
        # ||b|| + those cycles + 1 norms + the orthogonalizer's own count
        # at each step: nothing else in the solver may reduce.
        assert w.traffic.collective_count() == 1 + (cycles + 1) + ortho

    def test_overlap_does_not_change_collectives_or_bits(self):
        A = poisson2d(12)
        results = []
        for overlap in (False, True):
            w, M = par(A)
            b = M.new_vector(np.ones(A.shape[0]))
            res = PipelinedCG(
                M, tol=1e-8, max_iters=300, overlap=overlap
            ).solve(b)
            results.append((res, w.traffic.collective_count()))
        (sync, n_sync), (ovl, n_ovl) = results
        assert n_sync == n_ovl
        assert ovl.iterations == sync.iterations
        assert np.array_equal(ovl.x.data, sync.x.data)


class TestDeclaredContracts:
    """The @reduction_contract declarations must agree with the measured
    collective counts: every declared field is reconciled here with
    ``setup + per_restart * cycles + per_iteration * passes`` of a
    convergent solve.  GMRES is declared at its default one-reduce
    budget; the other Gram-Schmidt variants are pinned in
    TestReductionContracts."""

    def test_all_four_kernels_carry_contracts(self):
        assert CG.solve.__reduction_contract__ == {
            "setup": 2,
            "per_iteration": 2,
            "per_restart": 0,
        }
        assert PipelinedCG.solve.__reduction_contract__ == {
            "setup": 1,
            "per_iteration": 1,
            "per_restart": 0,
        }
        assert GMRES.solve.__reduction_contract__ == {
            "setup": 2,
            "per_iteration": 1,
            "per_restart": 1,
        }
        # Chebyshev is the reduction-free smoother: an explicitly
        # declared zero, not an absent declaration.
        c = ChebyshevSmoother.smooth.__reduction_contract__
        assert c["setup"] == 0 and c["per_iteration"] == 0

    def test_gmres_contract_matches_measured_collectives(self):
        A = poisson2d(8)
        w, M = par(A)
        b = M.new_vector(np.ones(A.shape[0]))
        res = GMRES(M, tol=1e-8, max_iters=200, restart=4).solve(b)
        c = GMRES.solve.__reduction_contract__
        # One history entry per Arnoldi step, one per cycle entered, one
        # for the norm the solve returns.
        cycles = len(res.residual_history) - res.iterations - 1
        assert cycles >= 2
        assert (
            c["setup"]
            + c["per_restart"] * cycles
            + c["per_iteration"] * res.iterations
            == w.traffic.collective_count()
        )

    def test_cg_contract_matches_measured_collectives(self):
        A = poisson2d(12)
        w, M = par(A)
        b = M.new_vector(np.ones(A.shape[0]))
        res = CG(M, tol=1e-8, max_iters=300).solve(b)
        c = CG.solve.__reduction_contract__
        assert (
            c["setup"] + c["per_iteration"] * res.iterations
            == w.traffic.collective_count()
        )

    def test_pipelined_cg_contract_matches_measured_collectives(self):
        A = poisson2d(12)
        w, M = par(A)
        b = M.new_vector(np.ones(A.shape[0]))
        res = PipelinedCG(M, tol=1e-8, max_iters=300).solve(b)
        c = PipelinedCG.solve.__reduction_contract__
        # The pipelined loop body runs iterations + 1 times (the fused
        # triple is evaluated once more at the converged step).
        assert (
            c["setup"] + c["per_iteration"] * (res.iterations + 1)
            == w.traffic.collective_count()
        )


    @pytest.mark.parametrize("degree", [1, 2, 4])
    def test_chebyshev_declared_zero_is_measured_zero(self, degree):
        A = poisson2d(8)
        w, M = par(A)
        smoother = make_smoother("chebyshev", M, degree=degree)
        # The eigenvalue estimate reduces, once, at construction.
        at_construction = w.traffic.collective_count()
        r = M.new_vector(np.ones(A.shape[0]))
        z = smoother.apply(r)
        smoother.smooth(r, z)
        assert w.traffic.collective_count() == at_construction


# -- the branches a convergent solve never takes ------------------------------

N = 16
EYE = sparse.identity(N, format="csr")
ZERO_MATRIX = sparse.csr_matrix((N, N))
#: ``||ONES|| = 4`` exactly, so ``b / ||b||`` and every dot product of the
#: one-step solves below are exact and the breakdowns are exact zeros.
ONES = np.ones(N)
POISONED = np.r_[np.nan, np.ones(N - 1)]


def solved(cls, A, b, **kw):
    """``(collectives, iterations, converged, len(history), finite)`` of
    one unpreconditioned solve on 4 ranks; all but the first say which
    exit the solver took."""
    w, M = par(A)
    with np.errstate(invalid="ignore"):
        res = cls(M, **kw).solve(M.new_vector(b))
    return (
        w.traffic.collective_count(),
        res.iterations,
        res.converged,
        len(res.residual_history),
        bool(np.isfinite(res.residual_norm)),
    )


def smoothed(**kw):
    """Collectives one Chebyshev ``smooth`` charges (the eigenvalue
    estimate at construction is not the decorated kernel's)."""
    w, M = par(poisson2d(4))
    smoother = make_smoother("chebyshev", M, **kw)
    before = w.traffic.collective_count()
    r = M.new_vector(ONES)
    smoother.smooth(r, smoother.apply(r))
    return (w.traffic.collective_count() - before,)


def orthogonalized(V, w, variant):
    """``(collectives, len(h), beta)`` of one ``orthogonalize`` call."""
    world = SimWorld(2)
    h, beta = orthogonalize(world, V, w.copy(), variant)
    return (world.traffic.collective_count(), h.size, beta)


E1 = np.eye(N, 1)

#: (owner, case, measurement, expected).  One row per conditional branch
#: inside a reduction-counted kernel that the convergent solves above
#: never drive.  The expected tuple is the closed form of the collective
#: count followed by the evidence (iterations / converged / history
#: length / finiteness) that the named branch, and no other, was taken.
#: Every ``@reduction_contract`` owner in the package must have a row:
#: ``test_every_contract_has_a_measured_pin``.
CONTRACT_PINS = [
    # ||b|| is the only reduction before the zero-RHS return.
    (GMRES.solve, "zero_rhs", lambda: solved(GMRES, EYE, 0 * ONES),
     (1, 0, True, 1, True)),
    (CG.solve, "zero_rhs", lambda: solved(CG, EYE, 0 * ONES),
     (1, 0, True, 1, True)),
    (PipelinedCG.solve, "zero_rhs",
     lambda: solved(PipelinedCG, EYE, 0 * ONES), (1, 0, True, 1, True)),
    # Lucky breakdown: A = I makes w = v_0, the projection leaves an
    # exact zero (h_10 = 0, basis column 1 never written) and the one
    # step solves the system.  ||b|| + the entering and leaving norms of
    # the one cycle + the orthogonalizer at j = 0: mgs 0 + 2, cgs2 3,
    # one-reduce 1 + the cancellation fallback's second reduction.
    (GMRES.solve, "lucky_breakdown-mgs",
     lambda: solved(GMRES, EYE, ONES, gs_variant="mgs", restart=4),
     (3 + 2, 1, True, 3, True)),
    (GMRES.solve, "lucky_breakdown-cgs2",
     lambda: solved(GMRES, EYE, ONES, gs_variant="cgs2", restart=4),
     (3 + 3, 1, True, 3, True)),
    (GMRES.solve, "lucky_breakdown-one_reduce",
     lambda: solved(GMRES, EYE, ONES, gs_variant="one_reduce", restart=4),
     (3 + 2, 1, True, 3, True)),
    # The trailing ``h_{j+1,j} <= 1e-300`` guard is shadowed by the
    # convergence test for any tol >= 0 (an exact-zero h makes the
    # rotated residual an exact zero), so an unreachable target drives
    # it: the first cycle must end after one of its four steps without
    # returning (a Givens breakdown would return), then cycle two
    # normalises a zero residual, poisons its one step and leaves
    # through the Givens guard.  ||b|| + 3 cycle norms + orthogonalize
    # 2 (fallback) + 1 (est is NaN: no fallback).
    (GMRES.solve, "lucky_breakdown-guard",
     lambda: solved(GMRES, EYE, ONES, tol=-1.0, restart=4),
     (1 + 3 + 2 + 1, 1, False, 4, True)),
    # Givens breakdown: A = 0 gives a zero column, which is discarded
    # (0 iterations) and the solve returns the true residual.  ||b|| +
    # entering norm + exit norm + orthogonalize (1 + fallback).
    (GMRES.solve, "givens_breakdown",
     lambda: solved(GMRES, ZERO_MATRIX, ONES), (3 + 2, 0, False, 2, True)),
    # A non-finite entering residual returns before any Arnoldi step.
    (GMRES.solve, "nonfinite_beta", lambda: solved(GMRES, EYE, POISONED),
     (2, 0, False, 1, False)),
    # CG on A = -I: ||b||, the fused (r.z, r.r) pair, and the one p.Ap
    # that finds the lost definiteness.
    (CG.solve, "pAp_not_positive", lambda: solved(CG, -EYE, ONES),
     (3, 0, False, 1, True)),
    # A poisoned residual norm never enters the loop.
    (CG.solve, "nonfinite_rnorm", lambda: solved(CG, EYE, POISONED),
     (2, 0, False, 1, False)),
    # Pipelined CG: ||b|| + the one fused triple of the first pass, on
    # either early exit (finite residual: the denominator guard;
    # non-finite: the norm guard above it).
    (PipelinedCG.solve, "denom_not_positive",
     lambda: solved(PipelinedCG, -EYE, ONES), (2, 0, False, 1, True)),
    (PipelinedCG.solve, "nonfinite_rnorm",
     lambda: solved(PipelinedCG, EYE, POISONED), (2, 0, False, 1, False)),
    # eig_ratio = 1 collapses the Chebyshev interval (delta = sigma = 0):
    # the guarded coefficients of the recurrence, still reduction-free.
    (ChebyshevSmoother.smooth, "collapsed_interval",
     lambda: smoothed(degree=3, eig_ratio=1.0), (0,)),
    # An empty basis is one norm, whatever the variant.
    (orthogonalize, "empty_basis-mgs",
     lambda: orthogonalized(np.zeros((N, 0)), ONES, "mgs"), (1, 0, 4.0)),
    (orthogonalize, "empty_basis-cgs2",
     lambda: orthogonalized(np.zeros((N, 0)), ONES, "cgs2"), (1, 0, 4.0)),
    (orthogonalize, "empty_basis-one_reduce",
     lambda: orthogonalized(np.zeros((N, 0)), ONES, "one_reduce"),
     (1, 0, 4.0)),
    # One-reduce cancellation fallback: w in span(V) makes the
    # Pythagorean estimate cancel (est <= 1e-10 ||w||^2), and the norm is
    # recomputed with a SECOND allreduce that GMRES's
    # assume={"orthogonalize": 1} does not price.
    (orthogonalize, "one_reduce_cancellation_fallback",
     lambda: orthogonalized(E1, 3.0 * E1[:, 0], "one_reduce"),
     (2, 1, 0.0)),
]


def contract_owners():
    """Every ``@reduction_contract``-decorated callable under ``repro``."""
    owners = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            owners.update(
                m for m in members if hasattr(m, "__reduction_contract__")
            )
    return owners


class TestContractBranches:
    """Measured counts on the exits and degenerate branches of every
    reduction-counted kernel — where a reduction hidden behind a
    condition would ship past the convergent-solve pins."""

    @pytest.mark.parametrize(
        "measure,expected",
        [row[2:] for row in CONTRACT_PINS],
        ids=[f"{row[0].__qualname__}-{row[1]}" for row in CONTRACT_PINS],
    )
    def test_branch_charges_its_closed_form(self, measure, expected):
        assert measure() == expected

    def test_every_contract_has_a_measured_pin(self):
        # A fifth decorated kernel cannot ship unpinned; the four known
        # ones keep the declaration a measured test reconciles.
        owners = contract_owners()
        assert {f.__qualname__ for f in owners} == {
            "GMRES.solve",
            "CG.solve",
            "PipelinedCG.solve",
            "ChebyshevSmoother.smooth",
        }
        assert owners <= {row[0] for row in CONTRACT_PINS}


class TestOverlapParity:
    """matvec(overlap=True) must be bitwise identical to the sync path."""

    @pytest.mark.parametrize("nranks", [2, 4, 6])
    @pytest.mark.parametrize("workload", ["poisson", "nonsym"])
    def test_matvec_bitwise_parity(self, workload, nranks):
        A = poisson2d(12) if workload == "poisson" else nonsym(120, seed=4)
        rng = np.random.default_rng(7)
        xv = rng.standard_normal(A.shape[0])

        w1, M1 = par(A, nranks)
        y_sync = M1.matvec(M1.new_vector(xv))
        w2, M2 = par(A, nranks)
        y_ovl = M2.matvec(M2.new_vector(xv), overlap=True)

        assert np.array_equal(y_ovl.data, y_sync.data)
        assert w1.metrics.counter_total("comm.overlapped_exchanges") == 0
        assert w2.metrics.counter_total("comm.overlapped_exchanges") == 1

    def test_parity_on_assembled_pressure_matrix(self, pressure_system):
        w, A, rhs = pressure_system
        x = A.new_vector(rhs.data.copy())
        y_sync = A.matvec(x)
        y_ovl = A.matvec(x, overlap=True)
        assert np.array_equal(y_ovl.data, y_sync.data)

    def test_parity_under_message_drop(self):
        A = poisson2d(10)
        rng = np.random.default_rng(3)
        xv = rng.standard_normal(A.shape[0])
        _w0, M0 = par(A, 4)
        y_ref = M0.matvec(M0.new_vector(xv))

        w, M = par(A, 4)
        w.fault_injector = FaultInjector((FaultSpec("message_drop", at=0),))
        y = M.matvec(M.new_vector(xv), overlap=True)
        assert np.array_equal(y.data, y_ref.data)
        assert w.metrics.counter_total("comm.retries") >= 1.0

    def test_parity_under_message_corruption(self):
        A = poisson2d(10)
        rng = np.random.default_rng(3)
        xv = rng.standard_normal(A.shape[0])
        _w0, M0 = par(A, 4)
        y_ref = M0.matvec(M0.new_vector(xv))

        w, M = par(A, 4)
        w.fault_injector = FaultInjector(
            (FaultSpec("message_corrupt", at=0),)
        )
        y = M.matvec(M.new_vector(xv), overlap=True)
        assert np.array_equal(y.data, y_ref.data)
        assert w.metrics.counter_total("comm.corrupt_detected") >= 1.0
        assert w.metrics.counter_total("comm.retries") >= 1.0


class TestPipelinedCG:
    """Behavior of the pipelined variant beyond the reduction contract."""

    def test_matches_cg_on_pressure_poisson(self):
        A = poisson2d(16)
        rng = np.random.default_rng(0)
        x_true = rng.standard_normal(A.shape[0])

        w1, M1 = par(A)
        cg = CG(M1, tol=1e-8, max_iters=400).solve(
            M1.new_vector(A @ x_true)
        )
        w2, M2 = par(A)
        pcg = PipelinedCG(M2, tol=1e-8, max_iters=400).solve(
            M2.new_vector(A @ x_true)
        )
        assert cg.converged and pcg.converged
        assert np.allclose(pcg.x.data, x_true, atol=1e-6)
        # Same Krylov space, same tolerance: iteration counts agree to
        # within rounding slack from the recurrence reordering.
        assert abs(pcg.iterations - cg.iterations) <= 2

    def test_preconditioned_converges(self):
        A = poisson2d(16)
        w, M = par(A)
        b = M.new_vector(np.ones(A.shape[0]))
        res = PipelinedCG(
            M, preconditioner=make_smoother("jacobi", M), tol=1e-8,
            max_iters=400
        ).solve(b)
        assert res.converged
        assert res.method == "pipelined_cg"

    def test_zero_rhs(self):
        A = poisson2d(8)
        w, M = par(A, nranks=2)
        res = PipelinedCG(M).solve(M.new_vector(np.zeros(A.shape[0])))
        assert res.converged
        assert res.iterations == 0
        assert np.all(res.x.data == 0.0)

    def test_nan_rhs_stops_without_spinning(self):
        A = poisson2d(8)
        w, M = par(A, nranks=2)
        rhs = np.ones(A.shape[0])
        rhs[0] = np.nan
        res = PipelinedCG(M, max_iters=50).solve(M.new_vector(rhs))
        assert not res.converged
        assert res.iterations == 0

    def test_factory_dispatch(self):
        A = poisson2d(8)
        w, M = par(A, nranks=2)
        cfg = SolverConfig(method="pipelined_cg", tol=1e-8, overlap=True)
        solver = make_krylov_solver(M, cfg=cfg)
        assert isinstance(solver, PipelinedCG)
        assert solver.overlap is True
        res = solver.solve(M.new_vector(np.ones(A.shape[0])))
        assert res.converged
        assert res.method == "pipelined_cg"
