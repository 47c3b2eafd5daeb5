"""Overset grid assembly (the TIOGA analogue).

The paper's computational model is "multiple independent meshes for
different flow regimes ... coupled through the overset method, for which
connectivity must be continually updated as the meshes move" (§2).  This
module performs the assembly steps for a background mesh plus body-fitted
near-body meshes:

1. **Hole cutting** — background nodes too close to a blade wall are
   deactivated (they sit inside the body-fitted region, or the body).
2. **Fringe classification** — background neighbors of holes become
   receptors from the blade meshes; blade ``outer``-boundary nodes become
   receptors from the background.
3. **Donor search** — each receptor takes, among the ``CANDIDATE_K`` donor
   cells with the nearest centroids whose padded bounding box holds it, the
   nearest one that contains it (trilinear Newton inversion), with
   inverse-distance fallback for receptors that land between donor cells.
   The search is batched across requests: one search per step serves every
   hole-cut patch and every blade rim, and an orphan-repair round
   re-searches only the background fringe receptors outside their blade's
   patch.  A receptor's result depends on that receptor alone, so reuse and
   batching leave every donor set bitwise what one search per receptor
   would give.

Only what depends on the position is paid per ``assemble()``.  The
background never moves and is a tensor product of three axes, so its
candidate cells are one ``searchsorted`` per axis.  A rigid blade keeps its
shape, so one body-frame index per shape (centroid and node kd-trees, cell
boxes, hull thickness) is built once per assembler and serves every blade
of that shape: a receptor enters a blade's frame through one 3x3 product.
Newton still inverts the world-frame corners.

Each index answers in its own frame: a receptor takes the lowest-keyed
containing candidate of the index that serves its donor mesh.  On the
background the key is the distance to the cell centroid; on a blade it is
the distance in its body frame, which is where the blade's shape stood
when the assembler was built (the workload's initial position).  The
nearest blade and the hull thickness are measured in that frame too.
``CompositeMesh`` builds one assembler per run, so every run and every
cold restart of a job shares the frame.  A body-frame distance is the
world-frame one to round-off, and ``tests/overset_reference.py`` holds
every result on the shipped workloads to world-frame kd-trees bit for bit.

The result feeds the linear systems as constraint rows (paper §3.1:
"Boundary-condition nodes, including periodic, Dirichlet, and overset DoFs
are accounted for precisely"), and the global coupled system is solved with
the additive Schwarz outer iteration of [20].
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from repro.mesh.hexmesh import HexMesh
from repro.overset.trilinear import contains, invert_map, shape_functions

#: Round-off allowance of a blade's placement, relative to the largest
#: coordinate of any mesh: far above the ulps that separate two frames'
#: arithmetic, far below any cell size.
_SLACK = 1e-10
#: Index of the background among the meshes.
BACKGROUND = 0
#: Donor-cell candidates per receptor in the search.
CANDIDATE_K = 32
#: A near-body mesh's sides that hang in the background flow (the O-grid
#: rim plus the span ends): its fringe, less the wall.
_FRINGE_SIDES = ("outer", "root", "tip")


class NodeStatus(IntEnum):
    """Overset status of a mesh node."""

    FIELD = 0
    FRINGE = 1
    HOLE = 2


@dataclass
class DonorSet:
    """Interpolation stencils for one receptor mesh from one donor mesh.

    Attributes:
        receptor_mesh: index of the mesh whose nodes receive data.
        donor_mesh: index of the mesh providing data.
        receptors: ``(m,)`` receptor node ids on the receptor mesh.
        donors: ``(m, 8)`` donor node ids on the donor mesh.
        weights: ``(m, 8)`` interpolation weights (rows sum to 1).
    """

    receptor_mesh: int
    donor_mesh: int
    receptors: np.ndarray
    donors: np.ndarray
    weights: np.ndarray

    def interpolate(self, donor_field: np.ndarray) -> np.ndarray:
        """Evaluate donor data at the receptors (scalar or vector field)."""
        vals = donor_field[self.donors]  # (m, 8[, ncomp])
        if vals.ndim == 3:
            return np.einsum("mi,mic->mc", self.weights, vals)
        return np.einsum("mi,mi->m", self.weights, vals)


@dataclass
class OversetConnectivity:
    """Full overset assembly result for one mesh system configuration."""

    statuses: list[np.ndarray]
    donor_sets: list[DonorSet]

    def fringe_nodes(self, mesh_index: int) -> np.ndarray:
        """Receptor node ids of one mesh."""
        return np.flatnonzero(self.statuses[mesh_index] == NodeStatus.FRINGE)

    def hole_nodes(self, mesh_index: int) -> np.ndarray:
        """Deactivated node ids of one mesh."""
        return np.flatnonzero(self.statuses[mesh_index] == NodeStatus.HOLE)

    def sets_for_receptor(self, mesh_index: int) -> list[DonorSet]:
        """Donor sets whose receptors live on the given mesh."""
        return [d for d in self.donor_sets if d.receptor_mesh == mesh_index]


#: One donor search: ``(receptor_mesh, donor_mesh, receptor_ids)``.
SearchRequest = tuple[int, int, np.ndarray]


def padded_boxes(
    corners: np.ndarray, pad: float = 1e-5
) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` of each cell's bounding box, padded by ``pad`` of its
    longest side.  A point with ``|xi| <= 1 + 1e-6`` in a trilinear hex lies
    within ~3e-6 cell diameters of the corners' convex hull, so the default
    pad flags no containing cell out."""
    # Corner by corner: ``min``/``max`` over the middle axis is 4x slower,
    # and either is exact.
    lo = hi = corners[:, 0]
    for i in range(1, corners.shape[1]):
        lo, hi = np.minimum(lo, corners[:, i]), np.maximum(hi, corners[:, i])
    p = pad * (hi - lo).max(axis=1, keepdims=True)
    return lo - p, hi + p


def _hull_thickness(coords: np.ndarray, boundaries: dict) -> float:
    """Median wall->outer separation (the O-grid shell thickness)."""
    tree = cKDTree(coords[boundaries["outer"]])
    d, _ = tree.query(coords[boundaries["wall"]], k=1)
    return float(np.median(d))


class _Candidates(NamedTuple):
    """Cells that may hold each of ``m`` points.

    ``rec``, ``cell`` and ``key`` are (point, cell) pairs, point-major and
    by ascending ``key`` within a point: the centroid distance in the
    index's frame, or the kNN rank.  ``nearest`` is each point's
    nearest-centroid cell, the stencil of a point no cell contains.
    """

    rec: np.ndarray
    cell: np.ndarray
    key: np.ndarray
    nearest: np.ndarray


class _DonorIndex:
    """World-frame search structures over one mesh, valid while its nodes
    stay put: the index of a background that is not a lattice and of a
    blade that is not rigid.

    Each structure is built on first use.
    """

    def __init__(self, mesh: HexMesh) -> None:
        self.mesh = mesh

    @cached_property
    def node_tree(self) -> cKDTree:
        return cKDTree(self.mesh.coords)

    @cached_property
    def hull(self) -> float:
        return _hull_thickness(self.mesh.coords, self.mesh.boundaries)

    @cached_property
    def _cell_search(self) -> tuple[cKDTree, np.ndarray, np.ndarray]:
        """``(tree, lo, hi)``: centroid kd-tree and padded per-cell AABBs."""
        corners = self.mesh.coords[self.mesh.cells]  # (ncell, 8, 3)
        return cKDTree(corners.mean(axis=1)), *padded_boxes(corners)

    def node_distance(self, pts: np.ndarray) -> np.ndarray:
        return self.node_tree.query(pts, k=1)[0]

    def candidates(self, pts: np.ndarray, k: int) -> _Candidates:
        """The ``k`` nearest-centroid cells of each point whose padded box
        holds it, keyed by rank."""
        tree, lo, hi = self._cell_search
        _, cand = tree.query(pts, k=k)
        cand = cand.reshape(pts.shape[0], k)
        # One axis at a time: (m, k) gathers, not (m, k, 3).
        in_box = np.ones(cand.shape, dtype=bool)
        for axis in range(3):
            p = pts[:, axis, None]
            in_box &= lo[cand, axis] <= p
            in_box &= p <= hi[cand, axis]
        rec, rank = np.nonzero(in_box)
        return _Candidates(rec, cand[rec, rank], rank, cand[:, 0])


class _Lattice:
    """A mesh whose nodes are the tensor product of three increasing axes,
    numbered as an open structured block (the background).

    A point's candidate cells are those whose slab holds it on every axis
    (one ``searchsorted`` per axis), keyed by the distance to their
    centroids, which are the tensor product of the axis midpoints.
    """

    def __init__(self, mesh: HexMesh, axes: list[np.ndarray]) -> None:
        self.mesh = mesh
        self.axes = axes
        self.mid = [0.5 * (a[:-1] + a[1:]) for a in axes]
        # Twice the largest padding a cell's box gets: every padded box
        # lies inside its slabs widened by this.
        self.pad = 2e-5 * max(float(np.diff(a).max()) for a in axes)

    @classmethod
    def of(cls, mesh: HexMesh) -> _Lattice | None:
        """The lattice view of ``mesh``, or None if it is not one."""
        shape, periodic = mesh.topology.shape, mesh.topology.periodic
        if any(periodic):
            return None
        X = mesh.coords.reshape(*shape, 3)
        axes = [X[:, 0, 0, 0], X[0, :, 0, 1], X[0, 0, :, 2]]
        if not all(np.all(np.diff(a) > 0) for a in axes):
            return None
        if not np.array_equal(
            X, np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        ):
            return None
        ny, nz = shape[1], shape[2]
        first = np.arange(X[..., 0].size).reshape(shape)[:-1, :-1, :-1]
        step = ny * nz
        corner = np.array(
            [0, step, step + nz, nz, 1, step + 1, step + nz + 1, nz + 1]
        )
        if not np.array_equal(mesh.cells, first.reshape(-1, 1) + corner):
            return None
        return cls(mesh, axes)

    def _cell(self, i: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        """The ids of cells ``(i, j, k)`` of the block."""
        return (i * (self.axes[1].size - 1) + j) * (self.axes[2].size - 1) + k

    def candidates(self, pts: np.ndarray, k: int) -> _Candidates:
        """Every cell whose padded box may hold each point, keyed by
        centroid distance.  The nearest centroid is the nearest midpoint
        on each axis."""
        first, count = [], []
        for a, x in enumerate(self.axes):
            lo = np.searchsorted(x, pts[:, a] - self.pad, side="left") - 1
            hi = np.searchsorted(x, pts[:, a] + self.pad, side="right") - 1
            lo = np.maximum(lo, 0)
            first.append(lo)
            count.append(np.maximum(np.minimum(hi, x.size - 2) - lo + 1, 0))
        total = count[0] * count[1] * count[2]
        rec = np.repeat(np.arange(pts.shape[0]), total)
        t = np.arange(rec.size) - np.repeat(np.cumsum(total) - total, total)
        cz, cyz = count[2][rec], count[1][rec] * count[2][rec]
        ijk = [
            first[0][rec] + t // cyz,
            first[1][rec] + (t % cyz) // cz,
            first[2][rec] + t % cz,
        ]
        d2 = (pts[rec, 0] - self.mid[0][ijk[0]]) ** 2
        d2 += (pts[rec, 1] - self.mid[1][ijk[1]]) ** 2
        d2 += (pts[rec, 2] - self.mid[2][ijk[2]]) ** 2
        key = np.sqrt(d2)
        order = np.lexsort((key, rec))
        near = []
        for a, mid in enumerate(self.mid):
            p = pts[:, a]
            up = np.minimum(np.searchsorted(mid, p), mid.size - 1)
            down = np.maximum(up - 1, 0)
            near.append(np.where(p - mid[down] <= mid[up] - p, down, up))
        return _Candidates(
            rec[order], self._cell(*ijk)[order], key[order], self._cell(*near)
        )


class _Shape:
    """Body-frame search structures of one rigid mesh shape, built once.

    The frame is where the first mesh of that shape stood when the
    assembler was made; :meth:`fit` finds where a mesh of this shape
    stands now relative to it.
    """

    def __init__(self, mesh: HexMesh) -> None:
        self.coords = mesh.coords.copy()
        self.cells = mesh.cells
        self.boundaries = mesh.boundaries
        self._mean = self.coords.mean(axis=0)
        self._centered = self.coords - self._mean

    @cached_property
    def node_tree(self) -> cKDTree:
        return cKDTree(self.coords)

    @cached_property
    def hull(self) -> float:
        return _hull_thickness(self.coords, self.boundaries)

    @cached_property
    def cell_search(self) -> tuple[cKDTree, np.ndarray, np.ndarray]:
        """Centroid kd-tree and cell boxes padded generously: the exact
        world-frame box test follows in the search."""
        corners = self.coords[self.cells]
        return cKDTree(corners.mean(axis=1)), *padded_boxes(corners, 1e-3)

    def same(self, mesh: HexMesh) -> bool:
        """Whether ``mesh`` has this shape's cells and boundaries."""
        return mesh.cells is self.cells or (
            np.array_equal(mesh.cells, self.cells)
            and self.boundaries.keys() == mesh.boundaries.keys()
            and all(
                np.array_equal(v, mesh.boundaries[s])
                for s, v in self.boundaries.items()
            )
        )

    def fit(
        self, x: np.ndarray, limit: float
    ) -> tuple[np.ndarray, np.ndarray, float] | None:
        """``(rot, shift, err)`` with ``x @ rot + shift`` within ``err`` of
        this shape's nodes (the least-squares rigid motion), or None if
        ``err`` exceeds ``limit``."""
        mx = x.mean(axis=0)
        u, _, vt = np.linalg.svd(self._centered.T @ (x - mx))
        # Row form of the inverse of the Kabsch rotation, without a flip.
        rot = (vt.T * [1.0, 1.0, np.sign(np.linalg.det(u @ vt))]) @ u.T
        shift = self._mean - mx @ rot
        miss = x @ rot + shift - self.coords
        err = float(np.sqrt((miss**2).sum(axis=1).max()))
        return (rot, shift, err) if err <= limit else None


class _Placed:
    """A :class:`_Shape` where one mesh stands now: points enter its frame
    as ``pts @ rot + shift``, within ``tol`` of where a rigid placement
    would put them."""

    def __init__(
        self, shape: _Shape, rot: np.ndarray, shift: np.ndarray, tol: float
    ) -> None:
        self.shape = shape
        self.rot = rot
        self.shift = shift
        self.tol = tol

    @property
    def hull(self) -> float:
        return self.shape.hull

    def _body(self, pts: np.ndarray) -> np.ndarray:
        return pts @ self.rot + self.shift

    def node_distance(self, pts: np.ndarray) -> np.ndarray:
        return self.shape.node_tree.query(self._body(pts), k=1)[0]

    def candidates(self, pts: np.ndarray, k: int) -> _Candidates:
        """The ``k`` nearest-centroid cells of each point whose generous
        box holds it, keyed by body-frame distance."""
        tree, lo, hi = self.shape.cell_search
        q = self._body(pts)
        dist, cand = tree.query(q, k=k)
        dist, cand = dist.reshape(-1, k), cand.reshape(-1, k)
        # Widened by ``tol``, which bounds how far the placement is from
        # rigid: frame round-off never drops a containing cell.
        in_box = np.ones(cand.shape, dtype=bool)
        for axis in range(3):
            p = q[:, axis, None]
            in_box &= lo[cand, axis] <= p + self.tol
            in_box &= p - self.tol <= hi[cand, axis]
        rec, rank = np.nonzero(in_box)
        return _Candidates(rec, cand[rec, rank], dist[rec, rank], cand[:, 0])


class OversetAssembler:
    """Builds overset connectivity for background + near-body meshes.

    ``meshes[BACKGROUND]`` is the background block.  It must not move
    (rotor motion moves the blades only), and a near-body mesh moves
    rigidly.  Built once per assembler and kept as long as it lives: the
    background's lattice view (or its world-frame index, if it is not a
    lattice), its node spacing, the blade rims and one body-frame index
    per blade shape.  Per ``assemble()`` each blade gets only its
    placement: a least-squares rigid fit of its coordinates to its shape,
    which makes every result a function of the coordinates.  A blade that
    is not a rigid image of its shape (to 1e-6 of the largest coordinate)
    is searched in the world frame.
    """

    def __init__(self, meshes: list[HexMesh]) -> None:
        self.meshes = meshes
        bg = meshes[BACKGROUND]
        scale = max(float(np.abs(m.coords).max()) for m in meshes)
        self._slack = _SLACK * scale
        #: Farthest a blade may be from a rigid image of its shape.
        self._limit = 1e-6 * scale
        self._background = _Lattice.of(bg) or _DonorIndex(bg)
        # One body-frame index per blade shape: a blade takes the first
        # shape it fits, or starts one.
        shapes: list[_Shape] = []
        self._shapes: dict[int, _Shape] = {}
        for k, mesh in enumerate(meshes):
            if k == BACKGROUND:
                continue
            for shape in shapes:
                if shape.same(mesh) and shape.fit(mesh.coords, self._limit):
                    break
            else:
                shape = _Shape(mesh)
                shapes.append(shape)
            self._shapes[k] = shape
        # Local background spacing (mean incident edge length per node):
        # hole cutting must leave the resulting fringe ring inside the
        # near-body hull or its receptors cannot find containing donors.
        spacing = np.zeros(bg.n_nodes)
        cnt = np.zeros(bg.n_nodes)
        for col in (0, 1):
            np.add.at(spacing, bg.edges[:, col], bg.edge_length)
            np.add.at(cnt, bg.edges[:, col], 1.0)
        spacing /= np.maximum(cnt, 1.0)
        self._spacing = spacing
        # Fringe on each near-body mesh: its open sides, except the
        # physical wall, which keeps its no-slip Dirichlet condition.
        self._rims: list[tuple[int, np.ndarray]] = []
        for k, mesh in enumerate(meshes):
            sides = [
                mesh.boundaries[s]
                for s in _FRINGE_SIDES
                if s in mesh.boundaries
            ]
            if k == BACKGROUND or not sides:
                continue
            rim = np.unique(np.concatenate(sides))
            wall = mesh.boundaries.get("wall")
            if wall is not None and wall.size:
                rim = np.setdiff1d(rim, wall, assume_unique=False)
            if rim.size:
                self._rims.append((k, rim))

    # -- public API -------------------------------------------------------------

    def assemble(self) -> OversetConnectivity:
        """Run hole cutting, classification, donor search, orphan repair."""
        nb = BACKGROUND
        bg = self.meshes[nb]
        index = self._index()
        statuses = [
            np.full(m.n_nodes, NodeStatus.FIELD, dtype=np.int8)
            for m in self.meshes
        ]

        # 1. Hole cutting on the background, donor-aware: a node is cut only
        # if it is close to a near-body wall AND it and all its graph
        # neighbors have containing donor cells in that near-body mesh (so
        # the fringe ring the cut creates can actually be interpolated —
        # this is what keeps blade-tip regions, where the O-grid ends, from
        # producing orphans).
        g = bg.node_graph()
        cuts = []  # (blade, candidate mask, patch, wall distance, cut)
        for k, mesh in enumerate(self.meshes):
            if k == nb:
                continue
            wall = mesh.boundaries.get("wall")
            if wall is None or wall.size == 0:
                continue
            cut = self._cut(index[k].hull)
            # Wall distance matters only below the cut distance: beyond the
            # largest one it is inf.
            d = self._wall_distance(mesh.coords[wall], cut.max())
            cand = d < cut
            if not np.any(cand):
                continue
            # Expand by one ring; require donor coverage for the whole
            # patch.
            reach = (g @ cand.astype(np.float64)) > 0
            cuts.append((k, cand, np.flatnonzero(cand | reach), d, cut))

        # One search serves every patch (from its blade) and every blade rim
        # (from the background): the rims do not depend on the cut.
        searched = self._search_donors(
            index,
            [(nb, k, patch) for k, _c, patch, _d, _cut in cuts]
            + [(k, nb, rim) for k, rim in self._rims],
        )
        rim_sets = [ds for ds, _found in searched[len(cuts) :]]

        # A patch node is "good" if a containing donor cell exists, or if
        # it sits so close to the wall that it must be inside the body
        # itself (a classical in-body hole).
        patches = {}  # blade -> (patch, donor set, found), for step 3
        hole_mask = np.zeros(bg.n_nodes, dtype=bool)
        for (k, cand, patch, d, cut), (ds, found) in zip(cuts, searched):
            patches[k] = (patch, ds, found)
            good = np.zeros(bg.n_nodes, dtype=bool)
            good[patch[found]] = True
            inbody = np.zeros(bg.n_nodes, dtype=bool)
            inbody[patch[~found]] = d[patch[~found]] < 0.5 * cut[patch[~found]]
            good |= inbody
            bad = np.zeros(bg.n_nodes, dtype=bool)
            bad[patch] = ~good[patch]
            has_bad_nbr = (g @ bad.astype(np.float64)) > 0
            hole_mask |= cand & good & ~has_bad_nbr
        statuses[nb][hole_mask] = NodeStatus.HOLE

        # 2. Fringe on the background: field neighbors of holes.  Fringe
        # on each near-body mesh: its rim.
        nbr_holes = g @ hole_mask.astype(np.float64)
        fringe_bg = (nbr_holes > 0) & ~hole_mask
        statuses[nb][fringe_bg] = NodeStatus.FRINGE
        for k, rim in self._rims:
            statuses[k][rim] = NodeStatus.FRINGE

        # 3. Donor search with orphan repair: a background receptor whose
        # containment search fails is demoted to FIELD and its hole
        # neighbors are promoted to FRINGE (they sit closer to the wall,
        # hence deeper inside the donor hull).  Iterate until clean (every
        # round bans at least one more node, so it ends); the invariant
        # "every HOLE neighbor is HOLE or FRINGE" is maintained so no
        # active stencil ever touches a frozen hole value.
        banned = np.zeros(bg.n_nodes, dtype=bool)
        donor_sets: list[DonorSet] = []
        while True:
            donor_sets = []
            orphan_ids: list[np.ndarray] = []
            bg_fringe = np.flatnonzero(statuses[nb] == NodeStatus.FRINGE)
            if bg_fringe.size:
                assigned = self._nearest_mesh(
                    index, bg.coords[bg_fringe], exclude=nb
                )
                for ds, found in self._fringe_search(
                    index, bg_fringe, assigned, patches
                ):
                    donor_sets.append(ds)
                    orphan_ids.append(ds.receptors[~found])
            orphans = (
                np.concatenate(orphan_ids)
                if orphan_ids
                else np.array([], dtype=np.int64)
            )
            if orphans.size == 0:
                break
            banned[orphans] = True
            statuses[nb][orphans] = NodeStatus.FIELD
            # Promote hole neighbors of demoted orphans to fringe.
            demoted = np.zeros(bg.n_nodes)
            demoted[orphans] = 1.0
            touched = (g @ demoted) > 0
            promote = touched & (statuses[nb] == NodeStatus.HOLE)
            statuses[nb][promote & ~banned] = NodeStatus.FRINGE
            statuses[nb][promote & banned] = NodeStatus.FIELD

        # Drop receptors that were demoted during repair from final sets.
        donor_sets = [
            self._filter_set(ds, statuses[ds.receptor_mesh])
            for ds in donor_sets
        ]
        donor_sets = [ds for ds in donor_sets if ds.receptors.size]
        # Near-body rims receive from the background (the domain hull always
        # contains them; orphans are not expected but the IDW fallback keeps
        # them well defined).
        return OversetConnectivity(
            statuses=statuses, donor_sets=donor_sets + rim_sets
        )

    def _index(self) -> list:
        """Every mesh's donor index where the meshes stand now."""
        index = []
        for k, mesh in enumerate(self.meshes):
            if k == BACKGROUND:
                index.append(self._background)
                continue
            shape = self._shapes[k]
            fit = shape.fit(mesh.coords, self._limit)
            index.append(
                _DonorIndex(mesh)
                if fit is None
                else _Placed(shape, *fit[:2], fit[2] + self._slack)
            )
        return index

    def _fringe_search(
        self,
        index: list,
        bg_fringe: np.ndarray,
        assigned: np.ndarray,
        patches: dict[int, tuple[np.ndarray, DonorSet, np.ndarray]],
    ) -> list[tuple[DonorSet, np.ndarray]]:
        """Donors of the background fringe, one set per assigned blade.

        A receptor in the hole-cut patch of its blade takes the patch
        search's row (a search is per receptor, so that row is what a fresh
        search finds); only the rest are searched, in one batch.
        """
        parts = []  # (blade, receptors, rows in the patch result or -1)
        requests: list[SearchRequest] = []
        for k in np.unique(assigned):
            k = int(k)
            sel = bg_fringe[assigned == k]
            row = np.full(sel.size, -1)
            if k in patches:
                patch = patches[k][0]
                pos = np.minimum(np.searchsorted(patch, sel), patch.size - 1)
                hit = patch[pos] == sel
                row[hit] = pos[hit]
            parts.append((k, sel, row))
            if np.any(row < 0):
                requests.append((BACKGROUND, k, sel[row < 0]))
        fresh = iter(self._search_donors(index, requests))
        out = []
        for k, sel, row in parts:
            donors = np.empty((sel.size, 8), dtype=np.int64)
            weights = np.zeros((sel.size, 8))
            found = np.zeros(sel.size, dtype=bool)
            reused = row >= 0
            if reused.any():
                _patch, ds, pfound = patches[k]
                donors[reused] = ds.donors[row[reused]]
                weights[reused] = ds.weights[row[reused]]
                found[reused] = pfound[row[reused]]
            if not reused.all():
                ds, sfound = next(fresh)
                donors[~reused] = ds.donors
                weights[~reused] = ds.weights
                found[~reused] = sfound
            out.append((DonorSet(BACKGROUND, k, sel, donors, weights), found))
        return out

    @staticmethod
    def _nearest_mesh(
        index: list, pts: np.ndarray, exclude: int
    ) -> np.ndarray:
        """Index of the nearest non-excluded mesh for each point, each
        measured in its own index's frame; the first one on a tie."""
        ks = [k for k in range(len(index)) if k != exclude]
        if not ks:
            return np.full(pts.shape[0], -1, dtype=np.int64)
        d = np.stack([index[k].node_distance(pts) for k in ks])
        return np.array(ks, dtype=np.int64)[np.argmin(d, axis=0)]

    @staticmethod
    def _filter_set(ds: DonorSet, status: np.ndarray) -> DonorSet:
        """Restrict a donor set to receptors still marked FRINGE."""
        keep = status[ds.receptors] == NodeStatus.FRINGE
        return DonorSet(
            receptor_mesh=ds.receptor_mesh,
            donor_mesh=ds.donor_mesh,
            receptors=ds.receptors[keep],
            donors=ds.donors[keep],
            weights=ds.weights[keep],
        )

    # -- internals ----------------------------------------------------------------

    def _cut(self, hull: float) -> np.ndarray:
        """Per background node, the wall distance below which it is cut."""
        return np.maximum(hull - 1.2 * self._spacing, 0.35 * hull)

    def _wall_distance(self, wall: np.ndarray, bound: float) -> np.ndarray:
        """Each background node's distance to the nearest ``wall`` point if
        below ``bound``, else inf.  Only nodes in the walls' box grown by
        ``bound`` can be that close, so only they are queried."""
        coords = self.meshes[BACKGROUND].coords
        grow = bound * (1.0 + 1e-9)
        near = np.flatnonzero(
            np.all(
                (coords >= wall.min(axis=0) - grow)
                & (coords <= wall.max(axis=0) + grow),
                axis=1,
            )
        )
        d = np.full(coords.shape[0], np.inf)
        d[near] = cKDTree(wall).query(
            coords[near], k=1, distance_upper_bound=bound
        )[0]
        return d

    def _search_donors(
        self, index: list, requests: list[SearchRequest]
    ) -> list[tuple[DonorSet, np.ndarray]]:
        """Donor cells + weights for a batch of receptor sets.

        Returns:
            one ``(donor_set, found)`` per request, in order: ``found``
            flags receptors whose containing donor cell was located (the
            rest use the inverse-distance fallback and may be treated as
            orphans).
        """
        jobs = [(d, self.meshes[r].coords[ids]) for r, d, ids in requests]
        return [
            (DonorSet(r, d, ids, donors, weights), found)
            for (r, d, ids), (donors, weights, found) in zip(
                requests, self._search_points(index, jobs)
            )
        ]

    def _search_points(
        self, index: list, jobs: list[tuple[int, np.ndarray]]
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(donors, weights, found)`` per ``(donor_mesh, points)`` job.

        Each point takes the lowest-keyed candidate cell of its donor
        mesh's index that contains it.  Each donor mesh's index is queried
        once for all of its jobs; only candidates whose padded bounding box
        holds the point can contain it, so those (point, candidate) pairs
        of every job alone are inverted, in one Newton batch.  The query is
        per point and ``invert_map`` per pair, so every point gets what a
        search of it alone, walking down its list, would find — however the
        jobs are split, ordered or joined.
        """
        if not jobs:
            return []
        offsets = np.cumsum([0] + [p.shape[0] for _d, p in jobs])
        pts = np.concatenate([p for _d, p in jobs])
        n = pts.shape[0]
        nearest = np.full(n, -1)
        groups = []  # (donor mesh, rows)
        rec, corner_ids, corners = [], [], []
        for d in dict.fromkeys(d for d, _p in jobs):
            rows = np.concatenate(
                [
                    np.arange(offsets[i], offsets[i + 1])
                    for i, (dd, _p) in enumerate(jobs)
                    if dd == d
                ]
            )
            k = min(CANDIDATE_K, self.meshes[d].cells.shape[0])
            c = index[d].candidates(pts[rows], k)
            groups.append((d, rows))
            nearest[rows] = c.nearest
            rec.append(rows[c.rec])
            corner_ids.append(self.meshes[d].cells[c.cell])
            corners.append(self.meshes[d].coords[corner_ids[-1]])
        rec = np.concatenate(rec)
        corner_ids = np.concatenate(corner_ids)
        corners = np.concatenate(corners)
        lo, hi = padded_boxes(corners)
        at = pts[rec]
        box = np.flatnonzero(np.all((lo <= at) & (at <= hi), axis=1))
        xi, ok = invert_map(corners[box], at[box])
        inside = np.flatnonzero(ok & contains(xi, tol=1e-6))
        held = box[inside]  # containing pairs, point-major by key
        hit, first = np.unique(rec[held], return_index=True)

        found = np.zeros(n, dtype=bool)
        found[hit] = True
        donors = np.empty((n, 8), dtype=np.int64)
        weights = np.zeros((n, 8))
        donors[hit] = corner_ids[held[first]]
        weights[hit] = shape_functions(xi[inside[first]])
        for d, rows in groups:
            # Fallback: inverse-distance weights on the nearest candidate
            # cell (receptors slightly outside the donor hull, e.g. at
            # domain rims).
            miss = rows[~found[rows]]
            if miss.size:
                dmesh = self.meshes[d]
                ids = dmesh.cells[nearest[miss]]
                dist = np.linalg.norm(
                    dmesh.coords[ids] - pts[miss][:, None, :], axis=2
                )
                w = 1.0 / np.maximum(dist, 1e-30)
                w /= w.sum(axis=1, keepdims=True)
                donors[miss] = ids
                weights[miss] = w

        return [
            (donors[a:b], weights[a:b], found[a:b])
            for a, b in zip(offsets[:-1], offsets[1:])
        ]
