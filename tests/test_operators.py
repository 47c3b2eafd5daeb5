"""Tests for the edge-based finite-volume operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import SimWorld
from repro.core import CompositeMesh
from repro.core.operators import (
    boundary_mass_flux,
    boundary_pressure_force,
    diffusion_coefficients,
    diffusion_pairs,
    divergence_of_velocity,
    edge_average,
    edge_divergence,
    green_gauss_gradient,
    least_squares_gradient,
    mass_flux,
    upwind_advection_coefficients,
)
from repro.mesh import make_background_only, make_turbine_tiny
from repro.overset.assembler import NodeStatus


@pytest.fixture(scope="module")
def box():
    """Background-only composite (regular metric, all sides open)."""
    return CompositeMesh(SimWorld(2), make_background_only())


@pytest.fixture(scope="module")
def turbine():
    return CompositeMesh(SimWorld(2), make_turbine_tiny())


class TestEdgeAverages:
    def test_scalar_average(self, box):
        f = box.coords[:, 0]
        fe = edge_average(box, f)
        a, b = box.edges[:, 0], box.edges[:, 1]
        assert np.allclose(fe, 0.5 * (f[a] + f[b]))

    def test_vector_average_shape(self, box):
        v = np.random.default_rng(0).standard_normal((box.n, 3))
        ve = edge_average(box, v)
        assert ve.shape == (box.n_edges, 3)


class TestDiffusion:
    def test_scalar_coefficient(self, box):
        g = diffusion_coefficients(box, 2.0)
        assert np.allclose(g, 2.0 * box.edge_area / box.edge_length)

    def test_nodal_coefficient_uses_edge_average(self, box):
        k = np.full(box.n, 3.0)
        g = diffusion_coefficients(box, k)
        assert np.allclose(g, 3.0 * box.edge_area / box.edge_length)

    def test_pairs_layout_is_laplacian(self):
        g = np.array([2.0])
        p = diffusion_pairs(g)
        assert p.tolist() == [[2.0, -2.0, -2.0, 2.0]]

    def test_laplacian_annihilates_constants(self, turbine):
        """The assembled diffusion operator maps constants to zero."""
        g = diffusion_coefficients(turbine, 1.0)
        ones = np.ones(turbine.n)
        # row sums of the edge-pair operator = divergence of zero flux.
        flux = g * (ones[turbine.edges[:, 1]] - ones[turbine.edges[:, 0]])
        div = edge_divergence(turbine, flux)
        assert np.abs(div).max() < 1e-12


class TestUpwind:
    @settings(max_examples=30, deadline=None)
    @given(m=st.floats(-100, 100))
    def test_property_row_sums_cancel(self, m):
        """Advection of a constant field is a pure divergence: the 2x2
        block's rows sum to +-mdot."""
        c = upwind_advection_coefficients(np.array([m]))[0]
        assert c[0] + c[1] == pytest.approx(m)
        assert c[2] + c[3] == pytest.approx(-m)

    def test_upwind_picks_upstream_value(self):
        c = upwind_advection_coefficients(np.array([5.0, -5.0]))
        # Positive flux: row a depends only on u_a.
        assert c[0, 0] == 5.0 and c[0, 1] == 0.0
        # Negative flux: row a depends only on u_b.
        assert c[1, 0] == 0.0 and c[1, 1] == -5.0


class TestGradients:
    def test_lsq_gradient_exact_for_linear(self, turbine):
        f = 3.0 - 2.0 * turbine.coords[:, 0] + 0.7 * turbine.coords[:, 2]
        g = least_squares_gradient(turbine, f)
        active = turbine.statuses != NodeStatus.HOLE
        assert np.allclose(
            g[active], [[-2.0, 0.0, 0.7]], atol=1e-8
        )

    def test_lsq_gradient_zero_for_constant(self, turbine):
        g = least_squares_gradient(turbine, np.full(turbine.n, 7.0))
        assert np.abs(g).max() < 1e-10

    def test_green_gauss_interior_accuracy(self, box):
        f = 2.0 * box.coords[:, 1]
        g = green_gauss_gradient(box, f)
        interior = np.setdiff1d(
            np.arange(box.n), box.meshes[0].all_boundary_nodes()
        )
        assert np.allclose(g[interior, 1], 2.0, atol=0.3)

    def test_lsq_beats_green_gauss_on_blades(self, turbine):
        """On stretched curvilinear cells LSQ stays exact; GG does not."""
        f = turbine.coords[:, 0]
        g_lsq = least_squares_gradient(turbine, f)
        g_gg = green_gauss_gradient(turbine, f)
        nbg = turbine.meshes[0].n_nodes
        err_lsq = np.abs(g_lsq[nbg:, 0] - 1.0).max()
        err_gg = np.abs(g_gg[nbg:, 0] - 1.0).max()
        assert err_lsq < 1e-8
        assert err_gg > err_lsq

    def test_lsq_cached_normal_matrices_are_bitwise_the_uncached(self):
        """The normal matrices live on the composite mesh (one build per
        connectivity update); the reference rebuilds them on each call,
        as the operator did.  Equal bit for bit before and after a rotor
        move, which changes coordinates, edges and the degenerate set."""

        def reference(comp, field):
            a, b = comp.edges[:, 0], comp.edges[:, 1]
            d = comp.coords[b] - comp.coords[a]
            w = 1.0 / np.einsum("ed,ed->e", d, d)
            df = field[b] - field[a]
            M_e = w[:, None, None] * d[:, :, None] * d[:, None, :]
            r_e = (w * df)[:, None] * d
            M = np.zeros((comp.n, 3, 3))
            r = np.zeros((comp.n, 3))
            np.add.at(M, a, M_e)
            np.add.at(M, b, M_e)
            np.add.at(r, a, r_e)
            np.add.at(r, b, r_e)
            degenerate = np.abs(np.linalg.det(M)) < 1e-300
            M[degenerate] = np.eye(3)
            r[degenerate] = 0.0
            return np.linalg.solve(M, r[:, :, None])[..., 0]

        comp = CompositeMesh(SimWorld(2), make_turbine_tiny())
        f = np.random.default_rng(3).standard_normal(comp.n)
        before = least_squares_gradient(comp, f)
        assert np.array_equal(before, reference(comp, f))
        comp.system.advance_rotor(0.05)
        comp.update_connectivity()
        after = least_squares_gradient(comp, f)
        assert np.array_equal(after, reference(comp, f))
        assert not np.array_equal(after, before)


class TestMassFlux:
    def test_uniform_flow_flux_matches_area_projection(self, box):
        u = np.tile([2.0, 0.0, 0.0], (box.n, 1))
        mdot = mass_flux(box, u, 1.0)
        S_x = box.edge_area * box.edge_dir[:, 0]
        assert np.allclose(mdot, 2.0 * S_x)

    def test_rhie_chow_scalar_and_array_tau_agree(self, box):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((box.n, 3))
        p = rng.standard_normal(box.n)
        m_s = mass_flux(box, u, 1.0, pressure=p, tau=0.3)
        m_a = mass_flux(
            box, u, 1.0, pressure=p, tau=np.full(box.n_edges, 0.3)
        )
        assert np.allclose(m_s, m_a)

    def test_rhie_chow_damps_checkerboard(self, box):
        """An oscillatory pressure mode produces a corrective flux."""
        # Checkerboard-ish pressure from parity of lattice indices.
        p = np.sin(box.coords[:, 0] * 50.0)
        u = np.zeros((box.n, 3))
        m0 = mass_flux(box, u, 1.0)
        m1 = mass_flux(box, u, 1.0, pressure=p, tau=0.1)
        assert np.abs(m1 - m0).max() > 0.0

    def test_ale_flux_zero_for_co_moving_fluid(self, turbine):
        """Fluid moving with the grid has no advective flux."""
        u = turbine.grid_velocity.copy()
        mdot = mass_flux(turbine, u, 1.0)
        scale = max(np.abs(turbine.grid_velocity).max(), 1.0)
        assert np.abs(mdot).max() < 1e-9 * scale * turbine.edge_area.max()


class TestDivergenceClosure:
    def test_uniform_flow_globally_conservative(self, box):
        """Total divergence (with boundary faces) telescopes to zero."""
        u = np.tile([8.0, 1.0, -2.0], (box.n, 1))
        div = divergence_of_velocity(box, u, 1.2)
        scale = np.abs(
            boundary_mass_flux(box, u, 1.2)
        ).max()
        assert abs(div.sum()) < 1e-9 * scale * box.n
        # And node-wise zero for a constant field on the rectilinear box.
        assert np.abs(div).max() < 1e-9 * scale

    def test_boundary_faces_close_the_dual_surfaces(self, box):
        """Sum of edge area vectors +- boundary faces = 0 per node
        (discrete divergence theorem for constant fields)."""
        net = np.zeros((box.n, 3))
        S = box.edge_area[:, None] * box.edge_dir
        np.add.at(net, box.edges[:, 0], S)
        np.add.at(net, box.edges[:, 1], -S)
        np.add.at(
            net, box.boundary_face_nodes, box.boundary_face_vectors
        )
        assert np.abs(net).max() < 1e-9 * box.edge_area.max()

    def test_linear_velocity_divergence(self, box):
        """div(u) for u = (x, 0, 0) integrates to the cell volumes."""
        u = np.stack(
            [box.coords[:, 0], np.zeros(box.n), np.zeros(box.n)], axis=1
        )
        div = divergence_of_velocity(box, u, 1.0)
        interior = np.setdiff1d(
            np.arange(box.n), box.meshes[0].all_boundary_nodes()
        )
        ratio = div[interior] / box.node_volume[interior]
        assert np.allclose(ratio, 1.0, atol=1e-9)


class TestScattersAreTheAddAtReference:
    """Every per-node sum in ``core`` is one ``np.bincount`` that must equal
    the ``np.add.at`` pair it replaced, bit for bit."""

    @pytest.fixture(scope="class")
    def fields(self, turbine):
        rng = np.random.default_rng(5)
        return {
            "edge": rng.standard_normal(turbine.n_edges),
            "node": rng.standard_normal(turbine.n),
            "vec": rng.standard_normal((turbine.n, 3)),
        }

    def test_edge_divergence(self, turbine, fields):
        a, b = turbine.edges[:, 0], turbine.edges[:, 1]
        ref = np.zeros(turbine.n)
        np.add.at(ref, a, fields["edge"])
        np.add.at(ref, b, -fields["edge"])
        got = edge_divergence(turbine, fields["edge"])
        assert got.tobytes() == ref.tobytes()

    def test_green_gauss_gradient(self, turbine, fields):
        a, b = turbine.edges[:, 0], turbine.edges[:, 1]
        f = fields["node"]
        flux = (0.5 * (f[a] + f[b]))[:, None] * turbine.store.face_vectors
        ref = np.zeros((turbine.n, 3))
        np.add.at(ref, a, flux)
        np.add.at(ref, b, -flux)
        ref /= turbine.node_volume[:, None]
        got = green_gauss_gradient(turbine, f)
        assert got.tobytes() == ref.tobytes()

    def test_boundary_sums(self, turbine, fields):
        ids = turbine.boundary_face_nodes
        rel = fields["vec"][ids] - turbine.grid_velocity[ids]
        ref = np.zeros(turbine.n)
        np.add.at(
            ref, ids,
            1.2 * np.einsum("nd,nd->n", rel, turbine.boundary_face_vectors),
        )
        got = boundary_mass_flux(turbine, fields["vec"], 1.2)
        assert got.tobytes() == ref.tobytes()
        p = fields["node"]
        for c in range(3):
            ref = np.zeros(turbine.n)
            np.add.at(ref, ids, -p[ids] * turbine.boundary_face_vectors[:, c])
            got = boundary_pressure_force(turbine, p, c)
            assert got.tobytes() == ref.tobytes()

    def test_momentum_diagonal(self, turbine, fields):
        from repro.core import SimulationConfig
        from repro.core.physics import MomentumSystem

        cfg = SimulationConfig(nranks=2)
        mom = MomentumSystem(turbine, cfg)
        mdot, mu = fields["edge"], np.abs(fields["node"]) + 1e-3
        bflux = np.abs(fields["node"])
        g_e = diffusion_coefficients(turbine, mu)
        ref = cfg.density * turbine.node_volume / cfg.dt
        a, b = turbine.edges[:, 0], turbine.edges[:, 1]
        np.add.at(ref, a, np.maximum(mdot, 0.0) + g_e)
        np.add.at(ref, b, np.maximum(-mdot, 0.0) + g_e)
        ref += np.maximum(bflux, 0.0)
        got = mom.row_diagonal(mdot, mu, bflux)
        assert got.tobytes() == ref.tobytes()
