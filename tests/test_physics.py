"""Tests for the equation systems' physics assembly and helpers."""

import numpy as np
import pytest

from repro.comm import SimWorld
from repro.core import CompositeMesh, SimulationConfig
from repro.core.operators import boundary_mass_flux, mass_flux
from repro.core.physics import (
    MomentumSystem,
    PressurePoissonSystem,
    ScalarTransportSystem,
)
from repro.mesh import make_turbine_tiny
from repro.overset.assembler import NodeStatus


@pytest.fixture(scope="module")
def setup():
    cfg = SimulationConfig(nranks=3)
    w = SimWorld(cfg.nranks)
    comp = CompositeMesh(w, make_turbine_tiny(), cfg.partition_method)
    mom = MomentumSystem(comp, cfg)
    pres = PressurePoissonSystem(comp, cfg)
    scal = ScalarTransportSystem(comp, cfg)
    return cfg, comp, mom, pres, scal


class TestConstraintSets:
    def test_momentum_constraints_cover_walls_and_farfield(self, setup):
        _cfg, comp, mom, _p, _s = setup
        cons = set(mom.constraint_rows().tolist())
        assert set(comp.wall_nodes().tolist()) <= cons
        assert set(comp.background_boundary("xlo").tolist()) <= cons
        # Outflow is free for momentum.
        outflow = set(comp.background_boundary("xhi").tolist())
        strictly_outflow = outflow - set(
            np.concatenate(
                [
                    comp.background_boundary(s)
                    for s in ("ylo", "yhi", "zlo", "zhi")
                ]
            ).tolist()
        )
        assert strictly_outflow & cons == set()

    def test_pressure_constraints_are_outflow_plus_overset(self, setup):
        _cfg, comp, _m, pres, _s = setup
        cons = set(pres.constraint_rows().tolist())
        assert set(comp.background_boundary("xhi").tolist()) <= cons
        assert set(comp.fringe_nodes().tolist()) <= cons
        # Inflow pressure rows are free (Neumann).
        inflow_only = set(comp.background_boundary("xlo").tolist()) - set(
            comp.background_boundary("yhi").tolist()
        )
        # Most inflow rows are not constrained.
        assert len(inflow_only - cons) > 0.5 * len(inflow_only)

    def test_fringe_and_holes_always_constrained(self, setup):
        _cfg, comp, mom, pres, scal = setup
        fr = set(comp.fringe_nodes().tolist())
        for eq in (mom, pres, scal):
            assert fr <= set(eq.constraint_rows().tolist())


class TestProjectionTau:
    def test_tau_bounded_by_dt(self, setup):
        cfg, comp, mom, _p, _s = setup
        u = np.tile([8.0, 0, 0], (comp.n, 1))
        mdot = mass_flux(comp, u, cfg.density)
        bflux = boundary_mass_flux(comp, u, cfg.density)
        mu = np.full(comp.n, cfg.viscosity)
        tau = mom.projection_tau(mdot, mu, bflux)
        assert np.all(tau > 0)
        assert np.all(tau <= cfg.dt * (1 + 1e-12))

    def test_tau_small_in_advection_dominated_cells(self, setup):
        cfg, comp, mom, _p, _s = setup
        u = np.tile([8.0, 0, 0], (comp.n, 1))
        mdot = mass_flux(comp, u, cfg.density)
        bflux = boundary_mass_flux(comp, u, cfg.density)
        mu = np.full(comp.n, cfg.viscosity)
        tau = mom.projection_tau(mdot, mu, bflux)
        # Somewhere the flow dominates the time term.
        assert tau.min() < 0.5 * cfg.dt

    def test_row_diagonal_positive(self, setup):
        cfg, comp, mom, _p, _s = setup
        u = np.tile([8.0, 0, 0], (comp.n, 1))
        mdot = mass_flux(comp, u, cfg.density)
        bflux = boundary_mass_flux(comp, u, cfg.density)
        a_p = mom.row_diagonal(mdot, np.full(comp.n, 1e-3), bflux)
        assert np.all(a_p > 0)


class TestBoundaryFieldHelpers:
    def test_boundary_velocity_values(self, setup):
        cfg, comp, mom, _p, _s = setup
        rng = np.random.default_rng(0)
        u = rng.standard_normal((comp.n, 3))
        bc = mom.boundary_velocity(u)
        far = comp.background_boundary("xlo")
        assert np.allclose(bc[far], np.asarray(cfg.inflow_velocity))
        wall = comp.wall_nodes()
        assert np.allclose(bc[wall], comp.grid_velocity[wall])
        for ds in comp.donor_sets:
            assert np.allclose(
                bc[ds.receptors], ds.interpolate(u), atol=1e-12
            )

    def test_boundary_scalar_values(self, setup):
        _cfg, comp, _m, _p, scal = setup
        s = np.random.default_rng(1).random(comp.n)
        bc = scal.boundary_scalar(s)
        assert np.allclose(
            bc[comp.background_boundary("xlo")], scal.inflow_value
        )
        assert np.allclose(bc[comp.wall_nodes()], scal.wall_value)


class TestAssembledSystems:
    def test_momentum_matrix_constraint_rows_identity(self, setup):
        cfg, comp, mom, _p, _s = setup
        u = np.tile([8.0, 0, 0], (comp.n, 1))
        mdot = mass_flux(comp, u, cfg.density)
        bflux = boundary_mass_flux(comp, u, cfg.density)
        A, rhs = mom.assemble(
            mdot=mdot,
            mu_eff=np.full(comp.n, cfg.viscosity),
            component=0,
            velocity=u,
            velocity_old=u,
            pressure=np.zeros(comp.n),
            boundary_flux=bflux,
        )
        o2n = comp.numbering.old_to_new
        cons_new = o2n[mom.constraint_rows()]
        Acsr = A.A
        for row in cons_new[:40]:
            lo, hi = Acsr.indptr[row], Acsr.indptr[row + 1]
            assert hi - lo == 1
            assert Acsr.indices[lo] == row
            assert Acsr.data[lo] == 1.0

    def test_momentum_diagonally_positive(self, setup):
        cfg, comp, mom, _p, _s = setup
        u = np.tile([8.0, 0, 0], (comp.n, 1))
        mdot = mass_flux(comp, u, cfg.density)
        bflux = boundary_mass_flux(comp, u, cfg.density)
        A, _ = mom.assemble(
            mdot=mdot,
            mu_eff=np.full(comp.n, cfg.viscosity),
            component=0,
            velocity=u,
            velocity_old=u,
            pressure=np.zeros(comp.n),
            boundary_flux=bflux,
        )
        assert np.all(A.diagonal() > 0)

    def test_pressure_matrix_symmetric_on_free_block(self, setup):
        cfg, comp, _m, pres, _s = setup
        u = np.tile([8.0, 0, 0], (comp.n, 1))
        mdot = mass_flux(comp, u, cfg.density)
        bflux = boundary_mass_flux(comp, u, cfg.density)
        A, _ = pres.assemble(
            mdot=mdot,
            pressure_correction_bc=np.zeros(comp.n),
            boundary_flux=bflux,
        )
        o2n = comp.numbering.old_to_new
        free_new = np.setdiff1d(
            np.arange(comp.n), o2n[pres.constraint_rows()]
        )
        sub = A.A[free_new][:, free_new]
        asym = abs(sub - sub.T)
        assert asym.max() < 1e-12 * abs(sub).max()

    def test_pressure_solve_record_keeps_history(self, setup):
        cfg, comp, _m, pres, _s = setup
        u = np.tile([8.0, 0, 0], (comp.n, 1))
        mdot = mass_flux(comp, u, cfg.density)
        bflux = boundary_mass_flux(comp, u, cfg.density)
        A, rhs = pres.assemble(
            mdot=mdot,
            pressure_correction_bc=np.zeros(comp.n),
            boundary_flux=bflux,
        )
        before = len(pres.solve_records)
        res = pres.solve(A, rhs)
        assert res.converged
        assert len(pres.solve_records) == before + 1
        assert pres.solve_records[-1].iterations == res.iterations

    def test_scalar_matrix_is_m_matrix_like(self, setup):
        cfg, comp, _m, _p, scal = setup
        u = np.tile([8.0, 0, 0], (comp.n, 1))
        mdot = mass_flux(comp, u, cfg.density)
        bflux = boundary_mass_flux(comp, u, cfg.density)
        s = np.full(comp.n, scal.inflow_value)
        A, _ = scal.assemble(
            mdot=mdot,
            scalar=s,
            scalar_old=s,
            boundary_flux=bflux,
        )
        coo = A.A.tocoo()
        off = coo.row != coo.col
        # Upwind + diffusion: off-diagonals non-positive.
        assert coo.data[off].max() <= 1e-12
