"""Tests for the mesh substrate: topology, metrics, generators, motion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import (
    BladeSpec,
    HexMesh,
    build_block_topology,
    geometric_stretching,
    graded_axis,
    make_background_mesh,
    make_blade_mesh,
    make_turbine_dual,
    make_turbine_low,
    make_workload,
    node_adjacency,
    rotation_matrix,
)
from repro.mesh import turbine
from repro.mesh.motion import RigidRotation
from repro.mesh.topology import boundary_node_sets
from repro.mesh.turbine import ROTOR_RADIUS


def uniform_box(shape=(4, 4, 4), extent=1.0):
    axes = [np.linspace(0, extent, s) for s in shape]
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return HexMesh.from_block("box", X)


class TestTopology:
    def test_cell_and_edge_counts_open_block(self):
        topo = build_block_topology((3, 4, 5))
        assert topo.cells.shape == (2 * 3 * 4, 8)
        ne = 2 * 4 * 5 + 3 * 3 * 5 + 3 * 4 * 4
        assert topo.edges.shape == (ne, 2)

    def test_cell_and_edge_counts_periodic(self):
        topo = build_block_topology((4, 3, 3), periodic=(True, False, False))
        assert topo.cells.shape == (4 * 2 * 2, 8)
        # Periodic direction contributes n (not n-1) edges per line.
        ne = 4 * 3 * 3 + 4 * 2 * 3 + 4 * 3 * 2
        assert topo.edges.shape == (ne, 2)

    def test_edges_are_unique(self):
        topo = build_block_topology((4, 4, 4))
        key = topo.edges[:, 0] * 10**6 + topo.edges[:, 1]
        assert np.unique(key).size == key.size

    def test_too_small_block_rejected(self):
        with pytest.raises(ValueError):
            build_block_topology((1, 3, 3))

    def test_boundary_sets_cover_shell(self):
        shape = (4, 5, 6)
        b = boundary_node_sets(shape, (False, False, False))
        assert set(b) == {"xlo", "xhi", "ylo", "yhi", "zlo", "zhi"}
        assert b["xlo"].size == 5 * 6
        assert b["zhi"].size == 4 * 5
        shell = np.unique(np.concatenate(list(b.values())))
        interior = 2 * 3 * 4
        assert shell.size == 4 * 5 * 6 - interior

    def test_periodic_direction_has_no_sides(self):
        b = boundary_node_sets((4, 4, 4), (True, False, False))
        assert "xlo" not in b and "xhi" not in b

    def test_node_adjacency_symmetric(self):
        topo = build_block_topology((3, 3, 3))
        indptr, indices = node_adjacency(27, topo.edges)
        # Center node of a 3x3x3 block has 6 neighbors.
        center = 13
        assert indptr[center + 1] - indptr[center] == 6


class TestHexMeshMetrics:
    def test_uniform_box_volumes_sum_to_domain(self):
        m = uniform_box((5, 5, 5), extent=2.0)
        assert m.node_volume.sum() == pytest.approx(8.0, rel=1e-12)

    def test_uniform_box_edge_metrics(self):
        m = uniform_box((5, 5, 5), extent=1.0)
        h = 0.25
        assert np.allclose(m.edge_length, h)
        # Interior transverse dual-face area = h*h.
        assert m.edge_area.max() == pytest.approx(h * h, rel=1e-12)

    def test_edge_dirs_unit(self):
        m = uniform_box((4, 4, 4))
        assert np.allclose(np.linalg.norm(m.edge_dir, axis=1), 1.0)

    def test_stats(self):
        m = uniform_box((4, 4, 4))
        st_ = m.stats()
        assert st_.n_nodes == 64
        assert st_.max_aspect_ratio == pytest.approx(1.0)
        assert st_.volume_ratio == pytest.approx(8.0)  # corner vs interior

    def test_node_graph_interior_degree(self):
        m = uniform_box((5, 5, 5))
        g = m.node_graph()
        deg = np.diff(g.indptr)
        assert deg.max() == 6
        assert deg.min() == 3

    def test_boundary_nodes_union(self):
        m = uniform_box((4, 4, 4))
        both = m.boundary_nodes("xlo", "xhi")
        assert both.size == 2 * 16
        with pytest.raises(KeyError):
            m.boundary_nodes("nope")

    def test_bad_lattice_shape_rejected(self):
        with pytest.raises(ValueError):
            HexMesh.from_block("bad", np.zeros((3, 3, 3)))


class TestGenerators:
    def test_graded_axis_uniform(self):
        ax = graded_axis(0.0, 1.0, 11)
        assert np.allclose(np.diff(ax), 0.1)

    def test_graded_axis_clusters_at_center(self):
        ax = graded_axis(-1.0, 1.0, 41, cluster=6.0, center=0.5)
        d = np.diff(ax)
        mid = np.argmin(np.abs(ax[:-1]))
        assert d[mid] < d[0]
        assert d[mid] < d[-1]
        assert np.all(d > 0)
        assert ax[0] == -1.0 and ax[-1] == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(3, 40),
        first=st.floats(1e-4, 0.2),
    )
    def test_geometric_stretching_properties(self, n, first):
        r = geometric_stretching(n, first)
        assert r[0] == 0.0
        assert r[-1] == pytest.approx(1.0)
        d = np.diff(r)
        assert np.all(d > 0)
        # Growth is monotone (geometric).
        assert np.all(d[1:] >= d[:-1] * (1 - 1e-9))

    def test_background_mesh_boundaries(self):
        m = make_background_mesh(
            "bg", ((0, 10), (0, 5), (0, 5)), (6, 5, 5)
        )
        assert m.n_nodes == 6 * 5 * 5
        assert set(m.boundaries) == {
            "xlo",
            "xhi",
            "ylo",
            "yhi",
            "zlo",
            "zhi",
        }

    def test_blade_mesh_structure(self):
        spec = BladeSpec(n_around=12, n_radial=6, n_span=5)
        m = make_blade_mesh("blade", spec)
        assert m.n_nodes == 12 * 6 * 5
        assert set(m.boundaries) == {"wall", "outer", "root", "tip"}
        assert m.boundaries["wall"].size == 12 * 5

    def test_blade_mesh_high_aspect_ratio(self):
        spec = BladeSpec(n_around=16, n_radial=10, n_span=8, first_cell_frac=1e-3)
        m = make_blade_mesh("blade", spec)
        assert m.stats().max_aspect_ratio > 50


class TestMotion:
    def test_rotation_matrix_orthogonal(self):
        R = rotation_matrix(np.array([1.0, 2.0, 3.0]), 0.7)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            rotation_matrix(np.zeros(3), 0.5)

    def test_rigid_rotation_preserves_metrics(self):
        spec = BladeSpec(n_around=12, n_radial=6, n_span=5)
        m = make_blade_mesh("blade", spec)
        from repro.mesh import RigidRotation

        rot = RigidRotation(axis=(1, 0, 0), center=(0, 0, 0), omega=1.0)
        vol0 = m.node_volume.copy()
        len0 = m.edge_length.copy()
        area0 = m.edge_area.copy()
        rot.apply(m, 0.37)
        assert np.allclose(m.node_volume, vol0, rtol=1e-9)
        assert np.allclose(m.edge_length, len0, rtol=1e-9)
        assert np.allclose(m.edge_area, area0, rtol=1e-9)
        assert rot.angle == pytest.approx(0.37)

    def test_grid_velocity_is_omega_cross_r(self):
        from repro.mesh import RigidRotation

        rot = RigidRotation(axis=(0, 0, 1), center=(0, 0, 0), omega=2.0)
        v = rot.grid_velocity(np.array([[1.0, 0.0, 0.0]]))
        assert np.allclose(v, [[0.0, 2.0, 0.0]])


class TestTurbineWorkloads:
    def test_scaled_node_counts_track_table1(self):
        low = make_turbine_low()
        dual = make_turbine_dual()
        # 1/1000-scale Table 1 within 5%.
        assert abs(low.total_nodes - 23_022) / 23_022 < 0.05
        assert abs(dual.total_nodes - 44_233) / 44_233 < 0.05

    def test_single_turbine_has_three_blades(self):
        s = make_turbine_low()
        assert len(s.blades) == 3
        assert len(s.rotations) == 3

    def test_dual_turbine_has_six_blades(self):
        assert len(make_turbine_dual().blades) == 6

    def test_advance_rotor_moves_blades_not_background(self):
        s = make_turbine_low()
        bg0 = s.background.coords.copy()
        bl0 = s.blades[0].coords.copy()
        s.advance_rotor(0.1)
        assert np.array_equal(s.background.coords, bg0)
        assert not np.allclose(s.blades[0].coords, bl0)

    @pytest.mark.parametrize(
        "name", ["turbine_tiny", "turbine_low", "turbine_dual"]
    )
    def test_copied_blades_equal_independent_builds(self, name):
        """Each blade shares one built blade topology; it is byte-equal to
        a ``make_blade_mesh`` of its own, phased by ``rotate_by``:
        coordinates, metrics, boundaries and topology."""
        s = make_workload(name)
        spec = (
            BladeSpec(
                span=0.85 * ROTOR_RADIUS,
                n_around=14,
                n_radial=6,
                n_span=8,
                first_cell_frac=4e-3,
                outer_radius=36.0,
            )
            if name == "turbine_tiny"
            else turbine._blade_spec(1)
        )
        for blade, rot in zip(s.blades, s.rotations, strict=True):
            hub = rot.center
            want = make_blade_mesh(
                blade.name,
                spec,
                root_center=(hub[0], hub[1], hub[2] + 0.05 * ROTOR_RADIUS),
            )
            phase = RigidRotation(rot.axis, hub, rot.omega)
            phase.rotate_by(want, np.deg2rad(120.0 * int(blade.name[-1])))
            assert phase.angle == rot.angle
            assert blade.name == want.name
            for attr in (
                "coords",
                "node_volume",
                "edge_area",
                "edge_length",
                "edge_dir",
                "cells",
                "edges",
                "edge_axis",
            ):
                got, ref = getattr(blade, attr), getattr(want, attr)
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes(), attr
            assert blade.topology.shape == want.topology.shape
            assert blade.topology.periodic == want.topology.periodic
            assert blade.boundaries.keys() == want.boundaries.keys()
            for side, ids in want.boundaries.items():
                assert blade.boundaries[side].tobytes() == ids.tobytes()
            # Copies share no array with each other.
            assert not any(
                np.shares_memory(blade.coords, other.coords)
                or np.shares_memory(blade.cells, other.cells)
                for other in s.blades
                if other is not blade
            )
