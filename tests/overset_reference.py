"""The world-frame overset search, kept as the reference implementation.

:class:`ReferenceAssembler` is :class:`~repro.overset.OversetAssembler`
as it was before the lattice and body-frame indexes: every ``assemble()``
builds a world-frame kd-tree index per blade (:class:`ReferenceIndex`),
queries every background node against every wall tree and measures each
blade's hull thickness again; the background's index is a k = 32 centroid
kNN.  Kept verbatim, apart from taking the search's points as given
(:func:`reference_search_points`) and reading the assembler's module
constants; do not optimize.  Every status, every
donor set and every search's ``(donors, weights, found)`` of the package's
assembler must equal this one's bitwise (``tests/test_overset.py``).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from repro.mesh.hexmesh import HexMesh
from repro.overset.assembler import (
    BACKGROUND,
    CANDIDATE_K,
    DonorSet,
    NodeStatus,
    OversetAssembler,
    OversetConnectivity,
    SearchRequest,
)
from repro.overset.trilinear import contains, invert_map, shape_functions


class ReferenceIndex:
    """Search structures over one mesh, valid while its nodes stay put."""

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
        """The ``k`` nearest-centroid cells of each point; which can hold it."""
        tree, lo, hi = self._cell_search
        _, cand = tree.query(pts, k=k)
        cand = cand.reshape(pts.shape[0], k)
        # One axis at a time: (m, k) gathers, not (m, k, 3).
        in_box = np.ones(cand.shape, dtype=bool)
        for axis in range(3):
            p = pts[:, axis, None]
            in_box &= lo[cand, axis] <= p
            in_box &= p <= hi[cand, axis]
        return cand, in_box


def reference_search_points(
    meshes: list[HexMesh],
    candidate_k: int,
    index: list[ReferenceIndex],
    jobs: list[tuple[int, np.ndarray]],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(donors, weights, found)`` per ``(donor_mesh, points)`` job."""
    if not jobs:
        return []
    pts = [p for _d, p in jobs]
    cand: list[np.ndarray] = [np.empty(0)] * len(jobs)
    in_box = list(cand)
    for d in dict.fromkeys(d for d, _p in jobs):
        mine = [i for i, job in enumerate(jobs) if job[0] == d]
        c, b = index[d].candidates(
            np.concatenate([pts[i] for i in mine]),
            min(candidate_k, meshes[d].cells.shape[0]),
        )
        start = 0
        for i in mine:
            stop = start + pts[i].shape[0]
            cand[i], in_box[i] = c[start:stop], b[start:stop]
            start = stop

    # Every in-box pair of every request: request-major, then
    # receptor-major with the rank ascending.
    offsets = np.cumsum([0] + [p.shape[0] for p in pts])
    recs, corner_ids, corners = [], [], []
    for i, (d, _p) in enumerate(jobs):
        rec, rank = np.nonzero(in_box[i])
        ids = meshes[d].cells[cand[i][rec, rank]]  # (pairs, 8)
        recs.append(rec + offsets[i])
        corner_ids.append(ids)
        corners.append(meshes[d].coords[ids])
    rec = np.concatenate(recs)
    corner_ids = np.concatenate(corner_ids)
    xi, ok = invert_map(np.concatenate(corners), np.concatenate(pts)[rec])
    inside = np.flatnonzero(ok & contains(xi, tol=1e-6))
    hit, first = np.unique(rec[inside], return_index=True)
    best = inside[first]  # lowest-ranked containing candidate per hit

    out = []
    for i, (donor_mesh, _p) in enumerate(jobs):
        lo, hi = np.searchsorted(hit, offsets[i : i + 2])
        mine, pick = hit[lo:hi] - offsets[i], best[lo:hi]
        m = pts[i].shape[0]
        donors = np.empty((m, 8), dtype=np.int64)
        weights = np.zeros((m, 8))
        found = np.zeros(m, dtype=bool)
        donors[mine] = corner_ids[pick]
        weights[mine] = shape_functions(xi[pick])
        found[mine] = True
        # Fallback: inverse-distance weights on the nearest candidate
        # cell (receptors slightly outside the donor hull, e.g. at
        # domain rims).
        miss = np.flatnonzero(~found)
        if miss.size:
            dmesh = meshes[donor_mesh]
            ids = dmesh.cells[cand[i][miss, 0]]
            dist = np.linalg.norm(
                dmesh.coords[ids] - pts[i][miss][:, None, :], axis=2
            )
            w = 1.0 / np.maximum(dist, 1e-30)
            w /= w.sum(axis=1, keepdims=True)
            donors[miss] = ids
            weights[miss] = w
        out.append((donors, weights, found))
    return out


class ReferenceAssembler(OversetAssembler):
    """The assembler with world-frame indexes rebuilt per ``assemble()``."""

    def __init__(self, meshes: list[HexMesh]) -> None:
        super().__init__(meshes)
        self._background_index = ReferenceIndex(meshes[BACKGROUND])

    def index(self) -> list[ReferenceIndex]:
        """Fresh blade indexes and the assembler's background index."""
        nb = BACKGROUND
        return [
            self._background_index if k == nb else ReferenceIndex(m)
            for k, m in enumerate(self.meshes)
        ]

    def assemble(self) -> OversetConnectivity:
        """Run hole cutting, classification, donor search, orphan repair."""
        nb = BACKGROUND
        bg = self.meshes[nb]
        index = self.index()
        statuses = [
            np.full(m.n_nodes, NodeStatus.FIELD, dtype=np.int8)
            for m in self.meshes
        ]

        g = bg.node_graph()
        cuts = []  # (blade, candidate mask, patch, wall distance, cut)
        for k, mesh in enumerate(self.meshes):
            if k == nb:
                continue
            wall = mesh.boundaries.get("wall")
            if wall is None or wall.size == 0:
                continue
            hull = self._hull_thickness(mesh)
            cut = np.maximum(hull - 1.2 * self._spacing, 0.35 * hull)
            # Wall distance matters only below the cut distance: the tree
            # prunes beyond the largest one and reports inf there.
            d, _ = cKDTree(mesh.coords[wall]).query(
                bg.coords, k=1, distance_upper_bound=cut.max()
            )
            cand = d < cut
            if not np.any(cand):
                continue
            reach = (g @ cand.astype(np.float64)) > 0
            cuts.append((k, cand, np.flatnonzero(cand | reach), d, cut))

        searched = self._search_donors(
            index,
            [(nb, k, patch) for k, _c, patch, _d, _cut in cuts]
            + [(k, nb, rim) for k, rim in self._rims],
        )
        rim_sets = [ds for ds, _found in searched[len(cuts) :]]

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

        nbr_holes = g @ hole_mask.astype(np.float64)
        fringe_bg = (nbr_holes > 0) & ~hole_mask
        statuses[nb][fringe_bg] = NodeStatus.FRINGE
        for k, rim in self._rims:
            statuses[k][rim] = NodeStatus.FRINGE

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
            demoted = np.zeros(bg.n_nodes)
            demoted[orphans] = 1.0
            touched = (g @ demoted) > 0
            promote = touched & (statuses[nb] == NodeStatus.HOLE)
            statuses[nb][promote & ~banned] = NodeStatus.FRINGE
            statuses[nb][promote & banned] = NodeStatus.FIELD

        donor_sets = [
            self._filter_set(ds, statuses[ds.receptor_mesh])
            for ds in donor_sets
        ]
        donor_sets = [ds for ds in donor_sets if ds.receptors.size]
        return OversetConnectivity(
            statuses=statuses, donor_sets=donor_sets + rim_sets
        )

    @staticmethod
    def _nearest_mesh(
        index: list[ReferenceIndex], pts: np.ndarray, exclude: int
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

    def _hull_thickness(self, mesh: HexMesh) -> float:
        """Median wall->outer separation (the O-grid shell thickness)."""
        wall = mesh.boundaries["wall"]
        outer = mesh.boundaries["outer"]
        tree = cKDTree(mesh.coords[outer])
        d, _ = tree.query(mesh.coords[wall], k=1)
        return float(np.median(d))

    def _search_donors(
        self, index: list[ReferenceIndex], requests: list[SearchRequest]
    ) -> list[tuple[DonorSet, np.ndarray]]:
        jobs = [(d, self.meshes[r].coords[ids]) for r, d, ids in requests]
        return [
            (DonorSet(r, d, ids, donors, weights), found)
            for (r, d, ids), (donors, weights, found) in zip(
                requests,
                reference_search_points(
                    self.meshes, CANDIDATE_K, index, jobs
                ),
            )
        ]
