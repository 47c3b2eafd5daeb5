"""Tests for overset assembly: trilinear maps, holes, fringes, donors."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import (
    list_workloads,
    make_turbine_dual,
    make_turbine_low,
    make_workload,
)
from repro.overset import (
    DonorSet,
    NodeStatus,
    OversetAssembler,
    contains,
    invert_map,
    shape_functions,
    shape_gradients,
)
from repro.overset import assembler
from tests.overset_reference import (
    ReferenceAssembler,
    ReferenceIndex,
    reference_search_points,
)

UNIT_HEX = np.array(
    [
        [0, 0, 0],
        [1, 0, 0],
        [1, 1, 0],
        [0, 1, 0],
        [0, 0, 1],
        [1, 0, 1],
        [1, 1, 1],
        [0, 1, 1],
    ],
    dtype=float,
)


def linear_field(x):
    return 1.0 + 2.0 * x[:, 0] - 3.0 * x[:, 1] + 0.5 * x[:, 2]


def _reference_invert_map(corners, points, iters=15, tol=1e-24):
    """The batch-wide Newton ``invert_map`` replaced: every pair iterates
    until all have converged, and one singular cell sends the whole batch
    through the pseudo-inverse."""
    m = points.shape[0]
    xi = np.zeros((m, 3))
    if m == 0:
        return xi, np.zeros(0, dtype=bool)
    ok = np.zeros(m, dtype=bool)
    for _ in range(iters):
        N = shape_functions(xi)
        res = points - np.einsum("mi,mid->md", N, corners)
        r2 = np.einsum("md,md->m", res, res)
        scale = np.einsum("mid,mid->m", corners, corners) / 8.0 + 1e-300
        ok = r2 <= tol * scale
        if np.all(ok):
            break
        J = np.einsum("mid,mie->mde", shape_gradients(xi), corners)
        try:
            dxi = np.linalg.solve(np.swapaxes(J, 1, 2), res[:, :, None])[..., 0]
        except np.linalg.LinAlgError:
            dxi = np.einsum(
                "mde,me->md", np.linalg.pinv(np.swapaxes(J, 1, 2)), res
            )
        xi = np.clip(xi + dxi, -2.0, 2.0)
    return xi, ok


def _reference_search_donors(asm, _index, receptor_mesh, donor_mesh, receptors):
    """The sequential candidate walk the batched search replaced: try each
    receptor's centroid-ranked candidates one rank at a time, one Newton
    batch per rank, until a cell contains it."""
    from scipy.spatial import cKDTree

    dmesh = asm.meshes[donor_mesh]
    pts = asm.meshes[receptor_mesh].coords[receptors]
    cells = dmesh.cells
    k = min(assembler.CANDIDATE_K, cells.shape[0])
    _, cand = cKDTree(dmesh.coords[cells].mean(axis=1)).query(pts, k=k)
    cand = np.atleast_2d(cand.reshape(pts.shape[0], k))

    m = pts.shape[0]
    donors = np.empty((m, 8), dtype=np.int64)
    weights = np.zeros((m, 8))
    found = np.zeros(m, dtype=bool)
    for j in range(k):
        todo = np.flatnonzero(~found)
        if todo.size == 0:
            break
        corner_ids = cells[cand[todo, j]]
        xi, ok = _reference_invert_map(dmesh.coords[corner_ids], pts[todo])
        inside = ok & contains(xi, tol=1e-6)
        hit = todo[inside]
        donors[hit] = corner_ids[inside]
        weights[hit] = shape_functions(xi[inside])
        found[hit] = True
    miss = np.flatnonzero(~found)
    if miss.size:
        corner_ids = cells[cand[miss, 0]]
        d = np.linalg.norm(
            dmesh.coords[corner_ids] - pts[miss][:, None, :], axis=2
        )
        w = 1.0 / np.maximum(d, 1e-30)
        donors[miss] = corner_ids
        weights[miss] = w / w.sum(axis=1, keepdims=True)
    ds = DonorSet(receptor_mesh, donor_mesh, receptors, donors, weights)
    return ds, found


def _reference_search(asm, index, requests):
    """The batched seam's signature over the reference, applied request by
    request."""
    return [_reference_search_donors(asm, index, *req) for req in requests]


def _traced_assemble(asm, search=None):
    """``asm.assemble()`` plus ``(receptor_mesh, donor_mesh, receptors,
    found)`` of every request of every batched donor search it made;
    ``search`` replaces the assembler's own batched search."""
    search = search or OversetAssembler._search_donors
    calls = []

    def spy(index, requests):
        results = search(asm, index, requests)
        for (r, d, receptors), (_ds, found) in zip(
            requests, results, strict=True
        ):
            calls.append((r, d, receptors, found))
        return results

    asm._search_donors = spy
    try:
        return asm.assemble(), calls
    finally:
        del asm._search_donors


def _distorted_pairs(rng, m):
    """``m`` (cell, point) pairs: distorted hexes of mixed size and place;
    points inside, just outside, and far from their cell."""
    corners = UNIT_HEX + 0.25 * rng.uniform(-1, 1, (m, 8, 3))
    corners = corners * rng.uniform(0.01, 10.0, (m, 1, 1))
    corners += rng.uniform(-50.0, 50.0, (m, 1, 3))
    xi = rng.uniform(-2.5, 2.5, (m, 3))
    points = np.einsum("mi,mid->md", shape_functions(xi), corners)
    points[rng.random(m) < 0.2] += 1e3
    return corners, points


class TestTrilinear:
    def test_partition_of_unity(self):
        rng = np.random.default_rng(0)
        xi = rng.uniform(-1, 1, (50, 3))
        N = shape_functions(xi)
        assert np.allclose(N.sum(axis=1), 1.0)

    def test_corner_values(self):
        from repro.overset.trilinear import _CORNERS

        N = shape_functions(_CORNERS)
        assert np.allclose(N, np.eye(8), atol=1e-14)

    def test_gradient_consistency(self):
        rng = np.random.default_rng(1)
        xi = rng.uniform(-0.9, 0.9, (5, 3))
        G = shape_gradients(xi)
        eps = 1e-6
        for d in range(3):
            xp = xi.copy()
            xp[:, d] += eps
            xm = xi.copy()
            xm[:, d] -= eps
            fd = (shape_functions(xp) - shape_functions(xm)) / (2 * eps)
            assert np.allclose(G[:, :, d], fd, atol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_invert_map_recovers_reference_coords(self, seed):
        rng = np.random.default_rng(seed)
        # Random mildly distorted hex.
        corners = UNIT_HEX + 0.15 * rng.uniform(-1, 1, (8, 3))
        xi_true = rng.uniform(-0.95, 0.95, (1, 3))
        pt = shape_functions(xi_true) @ corners
        xi, ok = invert_map(corners[None, :, :], pt)
        assert ok[0]
        assert np.allclose(xi[0], xi_true[0], atol=1e-8)
        assert contains(xi)[0]

    def test_contains_boundary_tolerance(self):
        xi = np.array([[1.0 + 1e-8, 0.0, 0.0], [1.5, 0.0, 0.0]])
        inside = contains(xi, tol=1e-6)
        assert inside[0] and not inside[1]

    def test_empty_batch(self):
        xi, ok = invert_map(np.zeros((0, 8, 3)), np.zeros((0, 3)))
        assert xi.shape == (0, 3)
        assert ok.shape == (0,)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 40))
    def test_invert_map_result_depends_on_the_pair_alone(self, seed, m):
        """Bitwise: a batch, its singletons, a permutation of it, and the
        batch padded with pairs that never converge."""
        rng = np.random.default_rng(seed)
        corners, points = _distorted_pairs(rng, m)
        xi, ok = invert_map(corners, points)
        for i in range(m):
            xi_1, ok_1 = invert_map(corners[i : i + 1], points[i : i + 1])
            assert np.array_equal(xi_1[0], xi[i]) and ok_1[0] == ok[i]
        perm = rng.permutation(m)
        xi_p, ok_p = invert_map(corners[perm], points[perm])
        assert np.array_equal(xi_p, xi[perm])
        assert np.array_equal(ok_p, ok[perm])
        pad = min(m, 3)
        xi_w, ok_w = invert_map(
            np.concatenate([corners[:pad], corners]),
            np.concatenate([points[:pad] + 1e4, points]),
        )
        assert not ok_w[:pad].any()
        assert np.array_equal(xi_w[pad:], xi)
        assert np.array_equal(ok_w[pad:], ok)

    def test_collapsed_cell_does_not_touch_other_pairs(self):
        """A hex flattened in z has a singular Jacobian everywhere; only
        that pair may take the pseudo-inverse path."""
        rng = np.random.default_rng(0)
        corners = UNIT_HEX + 0.2 * rng.uniform(-1, 1, (6, 8, 3))
        points = np.einsum(
            "mi,mid->md",
            shape_functions(rng.uniform(-0.9, 0.9, (6, 3))),
            corners,
        )
        corners[2] = UNIT_HEX
        corners[2, :, 2] = 0.0
        points[2] = [0.3, 0.4, 0.0]
        xi, ok = invert_map(corners, points)
        assert ok.all()  # the flat cell is solved too, in its own plane
        assert np.allclose(xi[2], [-0.4, -0.2, 0.0])
        for i in range(6):
            xi_1, ok_1 = invert_map(corners[i : i + 1], points[i : i + 1])
            assert np.array_equal(xi_1[0], xi[i]) and ok_1[0]


@pytest.fixture(scope="module")
def low_system():
    s = make_turbine_low()
    conn = OversetAssembler(s.meshes).assemble()
    return s, conn


@pytest.fixture(scope="module")
def dual_system():
    s = make_turbine_dual()
    conn = OversetAssembler(s.meshes).assemble()
    return s, conn


class TestOversetAssembly:
    def test_every_blade_rim_is_fringe(self, low_system):
        s, conn = low_system
        for k, mesh in enumerate(s.meshes[1:], start=1):
            outer = mesh.boundaries["outer"]
            wall = mesh.boundaries["wall"]
            rim = np.setdiff1d(outer, wall)
            assert np.all(conn.statuses[k][rim] == NodeStatus.FRINGE)

    def test_wall_nodes_are_not_fringe(self, low_system):
        s, conn = low_system
        for k, mesh in enumerate(s.meshes[1:], start=1):
            wall = mesh.boundaries["wall"]
            assert not np.any(conn.statuses[k][wall] == NodeStatus.FRINGE)

    def test_donor_weights_sum_to_one(self, low_system):
        _s, conn = low_system
        for ds in conn.donor_sets:
            assert np.allclose(ds.weights.sum(axis=1), 1.0, atol=1e-12)

    def test_linear_field_reproduced_exactly(self, low_system):
        s, conn = low_system
        for ds in conn.donor_sets:
            donor_vals = linear_field(s.meshes[ds.donor_mesh].coords)
            got = ds.interpolate(donor_vals)
            want = linear_field(
                s.meshes[ds.receptor_mesh].coords[ds.receptors]
            )
            assert np.allclose(got, want, atol=1e-6)

    def test_vector_field_interpolation(self, low_system):
        s, conn = low_system
        ds = conn.donor_sets[0]
        field = s.meshes[ds.donor_mesh].coords.copy()  # identity field
        got = ds.interpolate(field)
        want = s.meshes[ds.receptor_mesh].coords[ds.receptors]
        assert np.allclose(got, want, atol=1e-6)

    def test_dual_system_cuts_holes(self, dual_system):
        _s, conn = dual_system
        holes = conn.hole_nodes(0)
        assert holes.size > 0

    def test_hole_neighbors_never_field(self, dual_system):
        s, conn = dual_system
        g = s.background.node_graph().tocoo()
        st_ = conn.statuses[0]
        bad = (st_[g.row] == NodeStatus.HOLE) & (
            st_[g.col] == NodeStatus.FIELD
        )
        assert not np.any(bad)

    def test_background_fringe_has_nearbody_donors(self, dual_system):
        _s, conn = dual_system
        bg_fringe = conn.fringe_nodes(0)
        covered = np.concatenate(
            [
                ds.receptors
                for ds in conn.donor_sets
                if ds.receptor_mesh == 0
            ]
        ) if any(d.receptor_mesh == 0 for d in conn.donor_sets) else np.array([])
        assert np.array_equal(np.sort(covered), np.sort(bg_fringe))

    def test_statuses_cover_all_meshes(self, low_system):
        s, conn = low_system
        assert len(conn.statuses) == len(s.meshes)
        for st_, m in zip(conn.statuses, s.meshes):
            assert st_.shape == (m.n_nodes,)

    def test_connectivity_updates_after_rotation(self):
        s = make_turbine_dual()
        asm = OversetAssembler(s.meshes)
        conn0 = asm.assemble()
        h0 = conn0.hole_nodes(0)
        s.advance_rotor(0.8)  # large rotation
        conn1 = asm.assemble()
        h1 = conn1.hole_nodes(0)
        # Hole set changes as the rotor sweeps (not necessarily count).
        assert h1.size > 0
        # Donors remain linear-exact after motion.
        for ds in conn1.donor_sets:
            donor_vals = linear_field(s.meshes[ds.donor_mesh].coords)
            got = ds.interpolate(donor_vals)
            want = linear_field(
                s.meshes[ds.receptor_mesh].coords[ds.receptors]
            )
            assert np.allclose(got, want, atol=1e-5)


@pytest.mark.parametrize(
    "name", ["turbine_tiny", "turbine_low", "turbine_dual"]
)
def test_batched_search_matches_sequential_reference(name):
    """Same holes, fringes, receptors, donor cells and ``found`` flags as the
    candidate-at-a-time walk with the batch-wide Newton, at three rotor
    angles; weights differ only by the reference's surplus iterations."""
    s = make_workload(name)
    asm = OversetAssembler(s.meshes)
    for _angle in range(3):
        conn, calls = _traced_assemble(asm)
        ref, ref_calls = _traced_assemble(asm, _reference_search)
        for got, want in zip(conn.statuses, ref.statuses, strict=True):
            assert np.array_equal(got, want)
        for got, want in zip(calls, ref_calls, strict=True):
            assert got[:2] == want[:2]
            assert np.array_equal(got[2], want[2])
            assert np.array_equal(got[3], want[3])
        for got, want in zip(conn.donor_sets, ref.donor_sets, strict=True):
            assert (got.receptor_mesh, got.donor_mesh) == (
                want.receptor_mesh,
                want.donor_mesh,
            )
            assert np.array_equal(got.receptors, want.receptors)
            assert np.array_equal(got.donors, want.donors)
            assert np.abs(got.weights - want.weights).max() <= 1e-9
        s.advance_rotor(0.37)


@pytest.mark.parametrize("name", ["turbine_tiny", "turbine_low"])
def test_padded_box_rejects_no_containing_cell(name):
    """Invert *every* (receptor, candidate) pair of every search: a pair
    a filter drops never passes ``ok & contains``.  The filters are the
    world-frame padded AABBs on the ``k`` nearest centroids, the
    background lattice's axis slabs (on the same ``k`` cells) and a blade
    shape's generous body-frame boxes (on its own ``k`` nearest)."""
    s = make_workload(name)
    s.advance_rotor(0.21)
    asm = OversetAssembler(s.meshes)
    _conn, calls = _traced_assemble(asm)
    index = asm._index()
    passed = 0
    for receptor_mesh, donor_mesh, receptors, _found in calls:
        dmesh = s.meshes[donor_mesh]
        pts = s.meshes[receptor_mesh].coords[receptors]
        k = assembler.CANDIDATE_K
        ix = index[donor_mesh]
        if isinstance(ix, assembler._Placed):
            _, cand = ix.shape.cell_search[0].query(ix._body(pts), k=k)
        else:
            cand, _ = ReferenceIndex(dmesh).candidates(pts, k)
        corners = dmesh.coords[dmesh.cells[cand.ravel()]]
        at = np.repeat(pts, k, axis=0)
        lo, hi = assembler.padded_boxes(corners)
        in_box = np.all((lo <= at) & (at <= hi), axis=1).reshape(cand.shape)
        listed = ix.candidates(pts, k)
        kept = np.zeros(cand.shape, dtype=bool)
        for i in range(cand.shape[0]):
            kept[i] = np.isin(cand[i], listed.cell[listed.rec == i])
        xi, ok = invert_map(corners, at)
        inside = (ok & contains(xi, tol=1e-6)).reshape(cand.shape)
        assert not np.any(inside & ~(kept & in_box))
        passed += int(inside.sum())
    assert passed > 0


def _found_flags(ds, calls):
    """``found`` per receptor of a final donor set, from the last search of
    that receptor for its (receptor mesh, donor mesh): a fringe receptor
    its blade's hole-cut patch served keeps the patch search's flag."""
    flag = {}
    for receptor_mesh, donor_mesh, receptors, found in calls:
        if (receptor_mesh, donor_mesh) == (ds.receptor_mesh, ds.donor_mesh):
            flag.update(zip(receptors.tolist(), found.tolist()))
    return np.array([flag[i] for i in ds.receptors.tolist()], dtype=bool)


@pytest.mark.parametrize("name", [name for name, _ in list_workloads()])
def test_connectivity_invariants_under_motion(name):
    s = make_workload(name)
    asm = OversetAssembler(s.meshes)
    before = None
    for increment in range(3):
        if increment:
            s.advance_rotor(0.29)
        conn, calls = _traced_assemble(asm)
        for k, mesh in enumerate(s.meshes):
            # Every FRINGE node is a receptor of exactly one donor set.
            sets = conn.sets_for_receptor(k)
            covered = np.concatenate(
                [ds.receptors for ds in sets] + [np.array([], dtype=np.int64)]
            )
            assert np.array_equal(np.sort(covered), conn.fringe_nodes(k))
            # No HOLE borders a FIELD node.
            g = mesh.node_graph().tocoo()
            st_ = conn.statuses[k]
            assert not np.any(
                (st_[g.row] == NodeStatus.HOLE)
                & (st_[g.col] == NodeStatus.FIELD)
            )
        for ds in conn.donor_sets:
            assert np.allclose(ds.weights.sum(axis=1), 1.0, atol=1e-12)
            # Trilinear weights reproduce an affine field; the IDW fallback
            # of the receptors no cell contains does not.
            found = _found_flags(ds, calls)
            got = ds.interpolate(linear_field(s.meshes[ds.donor_mesh].coords))
            want = linear_field(s.meshes[ds.receptor_mesh].coords[ds.receptors])
            assert found.any()
            assert np.abs(got - want)[found].max() <= 1e-9

        if before is not None and s.blades:
            # The rotor moved, so the rim receptors and their weights did.
            assert any(
                a.weights.shape != b.weights.shape
                or not np.array_equal(a.weights, b.weights)
                for a, b in zip(before.donor_sets, conn.donor_sets)
            )
        before = conn

    # The indexes live as long as the assembler: one that has already
    # searched two other rotor positions gives what a new one does.
    fresh = OversetAssembler(s.meshes).assemble()
    for got, want in zip(conn.statuses, fresh.statuses, strict=True):
        assert np.array_equal(got, want)
    for got, want in zip(conn.donor_sets, fresh.donor_sets, strict=True):
        assert np.array_equal(got.receptors, want.receptors)
        assert np.array_equal(got.donors, want.donors)
        assert np.array_equal(got.weights, want.weights)


@functools.lru_cache(maxsize=1)
def _search_pool():
    """``turbine_tiny`` at a turned rotor: its assembler, a search index,
    background nodes around blade 1 (some inside a blade cell, some not)
    and blade 2's rim, each searched one receptor at a time."""
    s = make_workload("turbine_tiny")
    s.advance_rotor(0.21)
    asm = OversetAssembler(s.meshes)
    index = asm._index()
    lo, hi = s.meshes[1].bounding_box()
    lo, hi = lo - 0.25 * (hi - lo), hi + 0.25 * (hi - lo)
    c = s.meshes[0].coords
    pool = np.flatnonzero(np.all((c >= lo) & (c <= hi), axis=1))
    rim = dict(asm._rims)[2]
    one = {
        (0, 1, i): asm._search_donors(index, [(0, 1, np.array([i]))])[0]
        for i in pool
    }
    one.update(
        {
            (2, 0, i): asm._search_donors(index, [(2, 0, np.array([i]))])[0]
            for i in rim
        }
    )
    return asm, index, pool, rim, one


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batched_search_is_per_receptor(data):
    """Split, permute and join requests against one donor mesh (and,
    drawn, a rim request against the background in the same batch): every
    receptor's donors, weights and ``found`` are bitwise what a search of
    it alone gives."""
    asm, index, pool, rim, one = _search_pool()
    ids = np.array(data.draw(st.permutations(pool.tolist())), dtype=np.int64)
    cuts = sorted(
        data.draw(st.lists(st.integers(1, ids.size - 1), max_size=4))
    )
    requests = [
        (0, 1, part) for part in np.split(ids, cuts) if part.size
    ]
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(requests)))
        requests.insert(at, (2, 0, rim))
    results = asm._search_donors(index, requests)
    for (r, d, receptors), (ds, found) in zip(requests, results, strict=True):
        assert (ds.receptor_mesh, ds.donor_mesh) == (r, d)
        assert np.array_equal(ds.receptors, receptors)
        for j, i in enumerate(receptors.tolist()):
            ref, ref_found = one[(r, d, i)]
            assert np.array_equal(ds.donors[j], ref.donors[0])
            assert np.array_equal(ds.weights[j], ref.weights[0])
            assert found[j] == ref_found[0]


def test_patch_reuse_equals_a_fresh_search():
    """On ``turbine_low`` (three orphan-repair rounds a step), fringe
    receptors served by their blade's hole-cut patch search get what a
    fresh search of them gives, and most of them are served that way."""
    s = make_workload("turbine_low")
    asm = OversetAssembler(s.meshes)
    for _angle in range(2):
        conn, calls = _traced_assemble(asm)
        # A pair's first search is its patch (or rim); the rest are the
        # repair rounds' searches of receptors no patch served.
        searched: dict[tuple[int, int], list[np.ndarray]] = {}
        for r, d, receptors, _found in calls:
            searched.setdefault((r, d), []).append(receptors)
        index = asm._index()
        reused = 0
        for ds in conn.donor_sets:
            if ds.receptor_mesh != assembler.BACKGROUND:
                continue
            rounds = searched[(ds.receptor_mesh, ds.donor_mesh)][1:]
            reused += np.setdiff1d(
                ds.receptors, np.concatenate([[]] + rounds)
            ).size
            (fresh, found), = asm._search_donors(
                index, [(ds.receptor_mesh, ds.donor_mesh, ds.receptors)]
            )
            assert np.array_equal(fresh.donors, ds.donors)
            assert np.array_equal(fresh.weights, ds.weights)
            assert found.all()
        assert reused > conn.fringe_nodes(0).size // 2
        s.advance_rotor(0.37)



def _assert_same_connectivity(got, want):
    for a, b in zip(got.statuses, want.statuses, strict=True):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(got.donor_sets, want.donor_sets, strict=True):
        assert (a.receptor_mesh, a.donor_mesh) == (
            b.receptor_mesh,
            b.donor_mesh,
        )
        for field in ("receptors", "donors", "weights"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _assert_same_results(got, want):
    for (dn, wt, fd), (rdn, rwt, rfd) in zip(got, want, strict=True):
        assert dn.tobytes() == rdn.tobytes()
        assert wt.tobytes() == rwt.tobytes()
        assert fd.tobytes() == rfd.tobytes()


@pytest.mark.parametrize(
    "name", ["turbine_tiny", "turbine_low", "turbine_dual"]
)
def test_assemble_and_every_search_equal_the_reference(name):
    """At the golden positions (0, 1 and 2 calls of ``advance_rotor(0.37)``)
    and two more, the lattice and body-frame indexes give the world-frame
    reference's statuses and donor sets, and every search they make gives
    its ``(donors, weights, found)``, bit for bit."""
    s = make_workload(name)
    asm = OversetAssembler(s.meshes)
    ref = ReferenceAssembler(s.meshes)
    for dt in (0.0, 0.37, 0.37, 1.9, 0.011):
        if dt:
            s.advance_rotor(dt)
        conn, calls = _traced_assemble(asm)
        _assert_same_connectivity(conn, ref.assemble())
        index = ref.index()
        for r, d, receptors, found in calls:
            jobs = [(d, s.meshes[r].coords[receptors])]
            (got,) = asm._search_points(asm._index(), jobs)
            want = reference_search_points(
                s.meshes, assembler.CANDIDATE_K, index, jobs
            )
            _assert_same_results([got], want)
            assert found.tobytes() == want[0][2].tobytes()


def _adversarial_points(s, rng):
    """Per donor mesh, points a search finds hard: on its nodes, cell faces
    and cell edges (several containing cells), just outside its hull
    (inside a padded box) and far outside it; for a blade also inside the
    body."""
    jobs = []
    for d, mesh in enumerate(s.meshes):
        pick = rng.choice(mesh.cells.shape[0], 40, replace=False)
        corners = mesh.coords[mesh.cells[pick]]
        on = [
            corners[:, 0],
            corners[:, [0, 1, 2, 3]].mean(axis=1),
            0.5 * (corners[:, 0] + corners[:, 4]),
        ]
        if d == 0:
            # The background's hull is its box: just outside the middle of
            # each side, and far outside.
            lo, hi = mesh.bounding_box()
            out = np.repeat(0.5 * (lo + hi)[None], 8, axis=0)
            for a in range(3):
                out[2 * a, a] = lo[a] - 1e-7 * (hi[a] - lo[a])
                out[2 * a + 1, a] = hi[a] + 1e-7 * (hi[a] - lo[a])
            out[6:] += [[2.0, 0.0, 0.0], [0.0, -3.0, 0.0]] * (hi - lo)
        else:
            # ``outer`` and ``wall`` list the O-grid's rim and surface
            # nodes in the same order: a radial line each.
            outer = mesh.coords[mesh.boundaries["outer"]][::7]
            wall = mesh.coords[mesh.boundaries["wall"]][::7]
            out = np.concatenate(
                [
                    outer + 1e-7 * (outer - wall),
                    wall + 0.1 * (wall - outer),
                    outer + 2.0 * (outer - wall),
                ]
            )
        jobs.append((d, np.concatenate(on + [out])))
    return jobs


@pytest.mark.parametrize("name", ["turbine_tiny", "turbine_dual"])
def test_adversarial_points_equal_the_reference(name):
    """Points on nodes, faces and edges (several containing cells at
    round-off distances), inside the pad and outside every hull: the
    lattice and body-frame searches give the reference's results bit for
    bit, misses included."""
    s = make_workload(name)
    s.advance_rotor(0.21)
    asm = OversetAssembler(s.meshes)
    index = ReferenceAssembler(s.meshes).index()
    jobs = _adversarial_points(s, np.random.default_rng(7))
    got = asm._search_points(asm._index(), jobs)
    want = reference_search_points(
        s.meshes, assembler.CANDIDATE_K, index, jobs
    )
    _assert_same_results(got, want)
    assert any(not fd.all() for _dn, _wt, fd in got)


@pytest.mark.parametrize("name", ["turbine_tiny", "turbine_low"])
def test_wide_body_frame_boxes_still_give_the_reference(name, monkeypatch):
    """With a placement allowance of a tenth of the largest coordinate,
    every body-frame box test lets far more cells through to Newton, and
    every status and donor set is still the reference's: the widening only
    filters, and never picks."""
    monkeypatch.setattr(assembler, "_SLACK", 1e-1)
    s = make_workload(name)
    s.advance_rotor(0.37)
    _assert_same_connectivity(
        OversetAssembler(s.meshes).assemble(),
        ReferenceAssembler(s.meshes).assemble(),
    )


@pytest.mark.parametrize(
    "name", ["turbine_tiny", "turbine_low", "turbine_dual"]
)
def test_one_body_frame_index_per_blade_shape(name):
    """Every blade of these workloads is one shape (the dual's second rotor
    too), placed within round-off of a rigid image of it at every
    position."""
    s = make_workload(name)
    asm = OversetAssembler(s.meshes)
    assert isinstance(asm._background, assembler._Lattice)
    assert len({id(shape) for shape in asm._shapes.values()}) == 1
    for _ in range(3):
        for ix in asm._index()[1:]:
            assert isinstance(ix, assembler._Placed)
            assert ix.tol < 10 * asm._slack
        s.advance_rotor(0.37)


def test_a_deformed_blade_is_searched_in_the_world_frame():
    """A blade that is no longer a rigid image of its shape gets the
    world-frame index, and the reference's result."""
    s = make_workload("turbine_tiny")
    asm = OversetAssembler(s.meshes)
    s.blades[1].coords[:, 2] *= 1.01
    assert isinstance(asm._index()[2], assembler._DonorIndex)
    _assert_same_connectivity(
        asm.assemble(), ReferenceAssembler(s.meshes).assemble()
    )


@pytest.mark.parametrize(
    "name", ["turbine_tiny", "turbine_low", "turbine_dual"]
)
def test_donor_weights_reproduce_linear_fields(name):
    """The overset oracle: trilinear weights interpolate any linear field
    exactly, so at every receptor of every donor set, after 0, 1 and 2
    calls of ``advance_rotor(0.37)``, three random linear fields come back
    to round-off relative to their range over the donor mesh."""
    rng = np.random.default_rng(11)
    s = make_workload(name)
    asm = OversetAssembler(s.meshes)
    for i in range(3):
        if i:
            s.advance_rotor(0.37)
        conn = asm.assemble()
        assert conn.donor_sets
        for ds in conn.donor_sets:
            x = s.meshes[ds.donor_mesh].coords
            y = s.meshes[ds.receptor_mesh].coords[ds.receptors]
            for a, b in zip(rng.normal(size=3), rng.normal(size=(3, 3))):
                field = a + x @ b
                scale = field.max() - field.min()
                err = np.abs(ds.interpolate(field) - (a + y @ b))
                assert err.max() <= 1e-11 * scale
