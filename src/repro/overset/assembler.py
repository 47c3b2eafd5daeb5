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
3. **Donor search** — per receptor, candidate donor cells from a kd-tree on
   donor cell centroids, filtered by the cells' bounding boxes; one batched
   Newton inversion over every surviving (receptor, candidate) pair decides
   trilinear containment, with inverse-distance fallback for receptors that
   land between donor cells.

The result feeds the linear systems as constraint rows (paper §3.1:
"Boundary-condition nodes, including periodic, Dirichlet, and overset DoFs
are accounted for precisely"), and the global coupled system is solved with
the additive Schwarz outer iteration of [20].
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from repro.mesh.hexmesh import HexMesh
from repro.overset.trilinear import contains, invert_map, shape_functions


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


class _DonorIndex:
    """Search structures over one mesh, valid while its nodes stay put.

    ``assemble()`` makes one per mesh and drops them when it returns; each
    structure is built on first use (the background never needs its node
    tree, a mesh nobody receives from never needs its cell tree).
    """

    def __init__(self, mesh: HexMesh) -> None:
        self.mesh = mesh

    @cached_property
    def node_tree(self) -> cKDTree:
        return cKDTree(self.mesh.coords)

    @cached_property
    def _cell_search(self) -> tuple[cKDTree, np.ndarray, np.ndarray]:
        """``(tree, lo, hi)``: centroid kd-tree and padded per-cell AABBs."""
        corners = self.mesh.coords[self.mesh.cells]  # (ncell, 8, 3)
        lo, hi = corners.min(axis=1), corners.max(axis=1)
        pad = 1e-5 * (hi - lo).max(axis=1, keepdims=True)
        return cKDTree(corners.mean(axis=1)), lo - pad, hi + pad

    def candidates(
        self, pts: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest-centroid cells of each point; which can hold it.

        Returns:
            ``(cand, in_box)``, both ``(m, k)``: cell ids by ascending
            centroid distance, and whether the point lies in that cell's
            bounding box padded by 1e-5 of its longest side.  A point with
            ``|xi| <= 1 + 1e-6`` in a trilinear hex lies within ~3e-6 cell
            diameters of the corners' convex hull, so no containing cell is
            flagged out.
        """
        tree, lo, hi = self._cell_search
        _, cand = tree.query(pts, k=k)
        cand = cand.reshape(pts.shape[0], k)
        p = pts[:, None, :]
        return cand, np.all((p >= lo[cand]) & (p <= hi[cand]), axis=2)


class OversetAssembler:
    """Builds overset connectivity for background + near-body meshes."""

    def __init__(
        self,
        meshes: list[HexMesh],
        background_index: int = 0,
        hole_distance: float | None = None,
        candidate_k: int = 32,
        nearbody_fringe_sides: tuple[str, ...] = ("outer", "root", "tip"),
    ) -> None:
        """
        Args:
            meshes: all component meshes; one is the background.
            background_index: which mesh is the background block.
            hole_distance: background nodes closer than this to a near-body
                *wall* are cut; default = 60% of each blade's outer radius
                (estimated from its wall/outer geometry).
            candidate_k: donor-cell candidates per receptor in the search.
        """
        self.meshes = meshes
        self.background_index = background_index
        self.hole_distance = hole_distance
        self.candidate_k = candidate_k
        self.nearbody_fringe_sides = nearbody_fringe_sides

    # -- public API -------------------------------------------------------------

    def assemble(self) -> OversetConnectivity:
        """Run hole cutting, classification, donor search, orphan repair."""
        nb = self.background_index
        bg = self.meshes[nb]
        index = [_DonorIndex(m) for m in self.meshes]
        statuses = [
            np.full(m.n_nodes, NodeStatus.FIELD, dtype=np.int8)
            for m in self.meshes
        ]

        # Local background spacing (mean incident edge length per node):
        # hole cutting must leave the resulting fringe ring inside the
        # near-body hull or its receptors cannot find containing donors.
        spacing = np.zeros(bg.n_nodes)
        cnt = np.zeros(bg.n_nodes)
        for col in (0, 1):
            np.add.at(spacing, bg.edges[:, col], bg.edge_length)
            np.add.at(cnt, bg.edges[:, col], 1.0)
        spacing /= np.maximum(cnt, 1.0)

        # 1. Hole cutting on the background, donor-aware: a node is cut only
        # if it is close to a near-body wall AND it and all its graph
        # neighbors have containing donor cells in that near-body mesh (so
        # the fringe ring the cut creates can actually be interpolated —
        # this is what keeps blade-tip regions, where the O-grid ends, from
        # producing orphans).
        g = bg.node_graph()
        hole_mask = np.zeros(bg.n_nodes, dtype=bool)
        cand_mask = np.zeros(bg.n_nodes, dtype=bool)
        for k, mesh in enumerate(self.meshes):
            if k == nb:
                continue
            wall = mesh.boundaries.get("wall")
            if wall is None or wall.size == 0:
                continue
            hull = self._hull_thickness(mesh)
            cut = (
                np.full(bg.n_nodes, float(self.hole_distance))
                if self.hole_distance is not None
                else np.maximum(hull - 1.2 * spacing, 0.35 * hull)
            )
            # Wall distance matters only below the cut distance: the tree
            # prunes beyond the largest one and reports inf there.
            d, _ = cKDTree(mesh.coords[wall]).query(
                bg.coords, k=1, distance_upper_bound=cut.max()
            )
            cand = d < cut
            if not np.any(cand):
                continue
            # Expand by one ring; require donor coverage for the whole
            # patch.  A patch node is "good" if a containing donor cell
            # exists, or if it sits so close to the wall that it must be
            # inside the body itself (a classical in-body hole).
            reach = (g @ cand.astype(np.float64)) > 0
            patch = np.flatnonzero(cand | reach)
            _ds, found = self._search_donors(index, nb, k, patch)
            good = np.zeros(bg.n_nodes, dtype=bool)
            good[patch[found]] = True
            inbody = np.zeros(bg.n_nodes, dtype=bool)
            inbody[patch[~found]] = d[patch[~found]] < 0.5 * np.atleast_1d(
                cut if np.ndim(cut) == 0 else cut[patch[~found]]
            )
            good |= inbody
            bad = np.zeros(bg.n_nodes, dtype=bool)
            bad[patch] = ~good[patch]
            has_bad_nbr = (g @ bad.astype(np.float64)) > 0
            hole_mask |= cand & good & ~has_bad_nbr
            cand_mask |= cand
        statuses[nb][hole_mask] = NodeStatus.HOLE

        # 2. Fringe on the background: field neighbors of holes.
        nbr_holes = g @ hole_mask.astype(np.float64)
        fringe_bg = (nbr_holes > 0) & ~hole_mask
        statuses[nb][fringe_bg] = NodeStatus.FRINGE

        # Fringe on each near-body mesh: every open side that hangs in the
        # background flow (the O-grid rim plus the span ends), except the
        # physical wall, which keeps its no-slip Dirichlet condition.
        for k, mesh in enumerate(self.meshes):
            if k == nb:
                continue
            sides = [
                mesh.boundaries[s]
                for s in self.nearbody_fringe_sides
                if s in mesh.boundaries
            ]
            if not sides:
                continue
            rim = np.unique(np.concatenate(sides))
            wall = mesh.boundaries.get("wall")
            if wall is not None and wall.size:
                rim = np.setdiff1d(rim, wall, assume_unique=False)
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
                for k in np.unique(assigned):
                    sel = bg_fringe[assigned == k]
                    ds, found = self._search_donors(index, nb, int(k), sel)
                    donor_sets.append(ds)
                    orphan_ids.append(sel[~found])
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

        # Near-body outer fringe receives from the background (the domain
        # hull always contains the near-body rims; orphans are not expected
        # but the IDW fallback keeps them well defined).
        for k, mesh in enumerate(self.meshes):
            if k == nb:
                continue
            recs = np.flatnonzero(statuses[k] == NodeStatus.FRINGE)
            if recs.size:
                ds, _found = self._search_donors(index, int(k), nb, recs)
                donor_sets.append(ds)
        return OversetConnectivity(statuses=statuses, donor_sets=donor_sets)

    @staticmethod
    def _nearest_mesh(
        index: list[_DonorIndex], pts: np.ndarray, exclude: int
    ) -> np.ndarray:
        """Index of the nearest non-excluded mesh for each point."""
        assigned = np.full(pts.shape[0], -1, dtype=np.int64)
        best_d = np.full(pts.shape[0], np.inf)
        for k, idx in enumerate(index):
            if k == exclude:
                continue
            d, _ = idx.node_tree.query(pts, k=1)
            closer = d < best_d
            best_d[closer] = d[closer]
            assigned[closer] = k
        return assigned

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

    def _hull_thickness(self, mesh: HexMesh) -> float:
        """Median wall->outer separation (the O-grid shell thickness)."""
        wall = mesh.boundaries["wall"]
        outer = mesh.boundaries["outer"]
        tree = cKDTree(mesh.coords[outer])
        d, _ = tree.query(mesh.coords[wall], k=1)
        return float(np.median(d))

    def _search_donors(
        self,
        index: list[_DonorIndex],
        receptor_mesh: int,
        donor_mesh: int,
        receptors: np.ndarray,
    ) -> tuple[DonorSet, np.ndarray]:
        """Donor cells + weights for a batch of receptor nodes.

        Each receptor takes the nearest-centroid-ranked candidate cell that
        contains it.  Only candidates whose padded bounding box holds the
        point can, so those (receptor, candidate) pairs alone are inverted,
        all in one batch; ``invert_map`` is per-pair deterministic, so the
        batch finds what a walk down each receptor's list would.

        Returns:
            ``(donor_set, found)``: ``found`` flags receptors whose
            containing donor cell was located (the rest use the
            inverse-distance fallback and may be treated as orphans).
        """
        dmesh = self.meshes[donor_mesh]
        pts = self.meshes[receptor_mesh].coords[receptors]
        cells = dmesh.cells
        m = pts.shape[0]
        cand, in_box = index[donor_mesh].candidates(
            pts, min(self.candidate_k, cells.shape[0])
        )
        rec, rank = np.nonzero(in_box)  # receptor-major, rank ascending
        corner_ids = cells[cand[rec, rank]]  # (pairs, 8)
        xi, ok = invert_map(dmesh.coords[corner_ids], pts[rec])
        inside = np.flatnonzero(ok & contains(xi, tol=1e-6))
        hit, first = np.unique(rec[inside], return_index=True)
        best = inside[first]  # lowest-ranked containing candidate per hit

        donors = np.empty((m, 8), dtype=np.int64)
        weights = np.zeros((m, 8))
        found = np.zeros(m, dtype=bool)
        donors[hit] = corner_ids[best]
        weights[hit] = shape_functions(xi[best])
        found[hit] = True
        # Fallback: inverse-distance weights on the nearest candidate cell
        # (receptors slightly outside the donor hull, e.g. at domain rims).
        miss = np.flatnonzero(~found)
        if miss.size:
            cell_ids = cand[miss, 0]
            corner_ids = cells[cell_ids]
            corners = dmesh.coords[corner_ids]
            d = np.linalg.norm(corners - pts[miss][:, None, :], axis=2)
            w = 1.0 / np.maximum(d, 1e-30)
            w /= w.sum(axis=1, keepdims=True)
            donors[miss] = corner_ids
            weights[miss] = w
        ds = DonorSet(
            receptor_mesh=receptor_mesh,
            donor_mesh=donor_mesh,
            receptors=receptors,
            donors=donors,
            weights=weights,
        )
        return ds, found
