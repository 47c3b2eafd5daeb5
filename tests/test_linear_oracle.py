"""The linear stack against an independent solver.

On the assembled ``turbine_tiny`` systems at 2 ranks, the solve the
simulation runs (GMRES + BoomerAMG on pressure, GMRES + SGS2 on momentum)
must agree with SciPy's sparse direct solve of the same matrix: its true
residual, computed by SciPy's product, is within the solve tolerance, and
its error is within that tolerance times a 1-norm condition estimate
(``||x - x*|| / ||x*|| <= kappa(A) ||r|| / ||b||``).  Momentum is solved at
a tighter tolerance than its default: its constraint rows have unit
diagonal beside rows near 1e7, so ``kappa`` is about 3e7 and the default
tolerance would bound nothing.
"""

import dataclasses

import numpy as np
from scipy.sparse.linalg import LinearOperator, onenormest, spsolve, splu

from repro.amg.cycle import AMGPreconditioner
from repro.amg.hierarchy import AMGHierarchy
from repro.comm import SimWorld
from repro.core import CompositeMesh, SimulationConfig
from repro.core.operators import boundary_mass_flux, mass_flux
from repro.core.physics import MomentumSystem
from repro.krylov import make_krylov_solver
from repro.mesh import make_workload


def condition_1norm(A) -> float:
    """``||A||_1 ||A^-1||_1``, both by Higham's estimator."""
    lu = splu(A.tocsc())
    inverse = LinearOperator(
        A.shape, matvec=lu.solve, rmatvec=lambda v: lu.solve(v, trans="T")
    )
    return onenormest(A) * onenormest(inverse)


def assert_agrees_with_direct_solve(A, b, precond, solver_cfg):
    result = make_krylov_solver(A, precond, solver_cfg).solve(b)
    assert result.converged
    x, exact = result.x.data, spsolve(A.A.tocsc(), b.data)
    residual = np.linalg.norm(b.data - A.A @ x) / np.linalg.norm(b.data)
    assert residual <= solver_cfg.tol
    error = np.linalg.norm(x - exact) / np.linalg.norm(exact)
    assert error <= condition_1norm(A.A) * solver_cfg.tol


def test_gmres_amg_pressure_agrees_with_spsolve(assemble_tiny_pressure):
    _w, A, rhs = assemble_tiny_pressure(2)
    cfg = SimulationConfig(nranks=2)
    precond = AMGPreconditioner(AMGHierarchy(A, cfg.amg))
    assert_agrees_with_direct_solve(A, rhs, precond, cfg.pressure_solver)


def test_gmres_sgs2_momentum_agrees_with_spsolve():
    cfg = SimulationConfig(nranks=2)
    comp = CompositeMesh(
        SimWorld(cfg.nranks), make_workload("turbine_tiny"),
        cfg.partition_method,
    )
    u = np.tile([8.0, 0.0, 0.0], (comp.n, 1))
    mom = MomentumSystem(comp, cfg)
    A, rhs = mom.assemble(
        mdot=mass_flux(comp, u, cfg.density),
        mu_eff=np.full(comp.n, cfg.viscosity),
        component=0,
        velocity=u,
        velocity_old=u,
        pressure=np.zeros(comp.n),
        boundary_flux=boundary_mass_flux(comp, u, cfg.density),
    )
    tight = dataclasses.replace(cfg.momentum_solver, tol=1e-10)
    assert_agrees_with_direct_solve(A, rhs, mom.make_preconditioner(A), tight)
