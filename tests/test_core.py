"""Integration tests for the CFD pipeline: composite mesh, physics, stepping."""

import runpy
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro import NaluWindSimulation, SimulationConfig
from repro.comm import SimWorld
from repro.core import CompositeMesh, PHASES
from repro.core.composite import partition_nodes, pressure_pattern
from repro.core.operators import (
    diffusion_coefficients,
    edge_divergence,
    green_gauss_gradient,
    mass_flux,
    upwind_advection_coefficients,
)
from repro.mesh import make_background_only, make_turbine_tiny
from repro.overset.assembler import NodeStatus
from repro.partition import PARTITION_METHODS

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tiny_comp():
    w = SimWorld(3)
    return CompositeMesh(w, make_turbine_tiny())


@pytest.fixture(scope="module")
def tunnel_sim():
    cfg = SimulationConfig(nranks=2, dt=0.1)
    sim = NaluWindSimulation("background_only", cfg)
    report = sim.run(2)
    return sim, report


@pytest.fixture(scope="module")
def tiny_sim():
    cfg = SimulationConfig(nranks=3)
    sim = NaluWindSimulation("turbine_tiny", cfg)
    report = sim.run(2)
    return sim, report


class TestCompositeMesh:
    def test_dof_count(self, tiny_comp):
        assert tiny_comp.n == sum(m.n_nodes for m in tiny_comp.meshes)

    def test_numbering_is_rank_block(self, tiny_comp):
        num = tiny_comp.numbering
        assert num.offsets[-1] == tiny_comp.n
        for r in range(num.nranks):
            olds = num.owned_old_ids(r)
            assert np.all(tiny_comp.parts[olds] == r)

    def test_active_edges_exclude_holes(self, tiny_comp):
        hole = tiny_comp.statuses == NodeStatus.HOLE
        assert not np.any(hole[tiny_comp.edges])

    def test_grid_velocity_zero_on_background(self, tiny_comp):
        nbg = tiny_comp.meshes[0].n_nodes
        assert np.all(tiny_comp.grid_velocity[:nbg] == 0.0)

    def test_grid_velocity_nonzero_on_blades(self, tiny_comp):
        nbg = tiny_comp.meshes[0].n_nodes
        blade_speed = np.linalg.norm(
            tiny_comp.grid_velocity[nbg:], axis=1
        )
        assert blade_speed.max() > 1.0  # tip speed of a spinning rotor

    def test_rcb_partition_option(self):
        w = SimWorld(4)
        comp = CompositeMesh(w, make_turbine_tiny(), partition_method="rcb")
        assert np.bincount(comp.parts, minlength=4).min() > 0

    def test_donor_sets_in_global_ids(self, tiny_comp):
        for ds in tiny_comp.donor_sets:
            assert ds.receptors.max() < tiny_comp.n
            assert ds.donors.max() < tiny_comp.n


class TestFigurePartition:
    """Figs. 5/10 partition one composite at every rank count; each
    partition must be the one a simulation on that many ranks runs."""

    @pytest.fixture(scope="class")
    def one_rank(self):
        return CompositeMesh(SimWorld(1), make_turbine_tiny())

    @pytest.mark.parametrize("nranks", [2, 4])
    @pytest.mark.parametrize("method", PARTITION_METHODS)
    def test_partition_nodes_is_the_simulations(self, one_rank, method, nranks):
        run = CompositeMesh(
            SimWorld(nranks), make_turbine_tiny(), partition_method=method
        )
        assert np.array_equal(
            partition_nodes(one_rank, method, nranks), run.parts
        )

    def test_bench_balance_rows_use_it(self, one_rank, monkeypatch):
        monkeypatch.setitem(sys.modules, "conftest", SimpleNamespace(REFINE=2))
        balance_rows = runpy.run_path(
            str(ROOT / "benchmarks" / "bench_fig5_fig10_nnz_balance.py")
        )["balance_rows"]
        calls = []

        def spy(comp, method, nranks):
            calls.append((comp, method, nranks))
            return partition_nodes(comp, method, nranks)

        balance_rows.__globals__["partition_nodes"] = spy
        balance_rows(one_rank, [2, 4])
        assert calls == [
            (one_rank, m, n) for n in (2, 4) for m in ("rcb", "parmetis")
        ]
        assert balance_rows.__globals__["pressure_pattern"] is pressure_pattern


class TestOperators:
    def test_diffusion_coefficients_positive(self, tiny_comp):
        g = diffusion_coefficients(tiny_comp, 1.0)
        assert np.all(g > 0)

    def test_uniform_flow_has_zero_divergence(self, tiny_comp):
        u = np.tile([3.0, 0.0, 0.0], (tiny_comp.n, 1))
        # Uniform flow through the *static background* is exactly
        # divergence-free; restrict the check to background interior nodes.
        mdot = mass_flux(tiny_comp, u + tiny_comp.grid_velocity, 1.0)
        div = edge_divergence(tiny_comp, mdot)
        nbg = tiny_comp.meshes[0].n_nodes
        interior = np.setdiff1d(
            np.arange(nbg), tiny_comp.meshes[0].all_boundary_nodes()
        )
        interior = interior[
            tiny_comp.statuses[interior] == NodeStatus.FIELD
        ]
        scale = np.abs(mdot).max()
        assert np.abs(div[interior]).max() < 1e-9 * scale

    def test_green_gauss_gradient_of_linear_field(self, tiny_comp):
        # Check on background interior (regular metric region).
        f = 2.0 * tiny_comp.coords[:, 0] - 0.5 * tiny_comp.coords[:, 1]
        g = green_gauss_gradient(tiny_comp, f)
        nbg = tiny_comp.meshes[0].n_nodes
        interior = np.setdiff1d(
            np.arange(nbg), tiny_comp.meshes[0].all_boundary_nodes()
        )
        assert np.allclose(g[interior, 0], 2.0, atol=0.25)
        assert np.allclose(g[interior, 1], -0.5, atol=0.25)

    def test_upwind_coefficients_row_signs(self):
        mdot = np.array([2.0, -3.0])
        c = upwind_advection_coefficients(mdot)
        # Positive flux: row a diagonal positive, row b pulls from a.
        assert c[0].tolist() == [2.0, 0.0, -2.0, 0.0]
        assert c[1].tolist() == [0.0, -3.0, 0.0, 3.0]

    def test_rhie_chow_no_correction_for_consistent_pressure(self, tiny_comp):
        u = np.tile([3.0, 0.0, 0.0], (tiny_comp.n, 1))
        p_lin = 5.0 + 2.0 * tiny_comp.coords[:, 0]
        m0 = mass_flux(tiny_comp, u, 1.0)
        m1 = mass_flux(tiny_comp, u, 1.0, pressure=p_lin, tau=0.1)
        # A linear pressure field is exactly represented: the dissipation
        # term vanishes on edges whose endpoint gradients are exact
        # (background interior edges).
        nbg = tiny_comp.meshes[0].n_nodes
        bnd = np.zeros(tiny_comp.n, dtype=bool)
        bnd[tiny_comp.meshes[0].all_boundary_nodes()] = True
        bnd[nbg:] = True
        e_int = ~(bnd[tiny_comp.edges[:, 0]] | bnd[tiny_comp.edges[:, 1]])
        scale = np.abs(m0).max()
        assert np.abs((m1 - m0)[e_int]).max() < 1e-8 * scale


class TestFreestreamPreservation:
    """Uniform inflow through an empty tunnel must stay uniform."""

    def test_velocity_stays_uniform(self, tunnel_sim):
        # Limited by the linear-solver tolerances, not the discretization.
        sim, _rep = tunnel_sim
        u_inf = np.asarray(sim.config.inflow_velocity)
        err = np.abs(sim.velocity - u_inf).max()
        assert err < 1e-4 * np.linalg.norm(u_inf)

    def test_pressure_stays_flat(self, tunnel_sim):
        sim, _rep = tunnel_sim
        rho_u2 = sim.config.density * 64.0
        assert np.abs(sim.pressure_field).max() < 1e-3 * rho_u2

    def test_divergence_negligible(self, tunnel_sim):
        _sim, rep = tunnel_sim
        assert rep.divergence_norms[-1] < 1e-6

    def test_fast_solves_on_trivial_flow(self, tunnel_sim):
        _sim, rep = tunnel_sim
        assert rep.mean_iterations("momentum") <= 2.0


class TestTurbineSimulation:
    def test_runs_and_converges(self, tiny_sim):
        _sim, rep = tiny_sim
        assert rep.n_steps == 2
        for eq, its in rep.solve_iterations.items():
            assert len(its) > 0
            assert all(i >= 0 for i in its)

    def test_momentum_sgs2_under_ten_iterations(self, tiny_sim):
        """Paper: SGS2 -> 'less than five preconditioned GMRES iterations'
        for momentum; allow slack for the cold-start transient."""
        _sim, rep = tiny_sim
        assert rep.mean_iterations("momentum") < 10.0

    def test_pressure_needs_amg_scale_iterations(self, tiny_sim):
        _sim, rep = tiny_sim
        assert rep.mean_iterations("pressure") > rep.mean_iterations(
            "momentum"
        )

    def test_fields_finite(self, tiny_sim):
        sim, _rep = tiny_sim
        assert np.all(np.isfinite(sim.velocity))
        assert np.all(np.isfinite(sim.pressure_field))
        assert np.all(np.isfinite(sim.scalar_field))

    def test_mass_conservation_improves(self, tiny_sim):
        _sim, rep = tiny_sim
        assert rep.divergence_norms[-1] < 1e-3

    def test_rotor_disturbs_near_body_flow(self, tiny_sim):
        """The spinning rotor must leave a signature on the near-body flow
        (the background wake itself needs the hole-cutting coupling of the
        larger workloads, exercised by the benchmarks)."""
        sim, _rep = tiny_sim
        comp = sim.comp
        nbg = comp.meshes[0].n_nodes
        near = sim.velocity[nbg:]
        dev = np.linalg.norm(near - [8.0, 0.0, 0.0], axis=1)
        assert dev.max() > 1.0
        # ... and stays bounded (no projection blow-up on the O-grids).
        assert np.linalg.norm(sim.velocity, axis=1).max() < 500.0

    def test_phase_snapshots_per_step(self, tiny_sim):
        _sim, rep = tiny_sim
        assert len(rep.step_snapshots) == rep.n_steps
        deltas = rep.step_deltas()
        # Every equation phase shows up with positive work each step.
        for eq in ("momentum", "pressure", "scalar"):
            for suffix in PHASES:
                ph = f"{eq}/{suffix}"
                assert ph in deltas[0], ph
                assert deltas[1][ph].flops >= 0

    def test_pressure_solve_dominates_flops(self, tiny_sim):
        """Paper Figs. 6-7: pressure-Poisson dominates the NLI cost."""
        _sim, rep = tiny_sim
        last = rep.step_snapshots[-1]
        p = sum(
            agg.flops
            for ph, agg in last.items()
            if ph.startswith("pressure/")
        )
        s = sum(
            agg.flops
            for ph, agg in last.items()
            if ph.startswith("scalar/")
        )
        assert p > s

    def test_wall_times_recorded(self, tiny_sim):
        _sim, rep = tiny_sim
        assert rep.wall_times
        assert any(k.endswith("/solve") for k in rep.wall_times)

    def test_peak_alloc_positive(self, tiny_sim):
        _sim, rep = tiny_sim
        assert rep.peak_alloc_bytes > 0


class TestConfig:
    def test_validation(self):
        cfg = SimulationConfig(partition_method="bogus")
        with pytest.raises(ValueError):
            cfg.validate()
        cfg = SimulationConfig(assembly_variant="bogus")
        with pytest.raises(ValueError):
            cfg.validate()
        cfg = SimulationConfig(nranks=0)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            NaluWindSimulation("no_such_mesh")


@pytest.mark.slow
class TestLowResStability:
    """The blade-resolved low-res workload must stay bounded: the
    under-relaxed Picard loop tames the u <-> p feedback on the
    high-aspect-ratio, non-orthogonal O-grids (gain ~4 per iteration
    without damping)."""

    def test_two_way_coupled_run_stays_bounded(self):
        cfg = SimulationConfig(nranks=4)
        sim = NaluWindSimulation("turbine_low", cfg)
        peaks = []
        for _ in range(3):
            sim.step()
            peaks.append(float(np.linalg.norm(sim.velocity, axis=1).max()))
        # Bounded by a small multiple of the rotor tip speed and not
        # growing across steps.
        assert peaks[-1] < 2000.0
        assert peaks[-1] <= peaks[0] * 1.5
        assert sim.divergence_norms[-1] < 1e-5
        assert np.all(np.isfinite(sim.pressure_field))
