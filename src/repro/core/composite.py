"""Composite view over an overset mesh system.

Nalu-Wind keeps all of its component meshes in one STK bulk-data instance
and assembles a single linear system per equation over all of them; the
overset receptors appear as constraint rows.  :class:`CompositeMesh` builds
that view: global DoF numbering over all component meshes, concatenated
geometry/metric arrays, overset statuses, donor sets in global ids, the
active edge list (hole-incident edges dropped), and the domain
decomposition + rank-block renumbering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.comm.simcomm import SimWorld
from repro.mesh.turbine import TurbineMeshSystem
from repro.overset.assembler import (
    DonorSet,
    NodeStatus,
    OversetAssembler,
    OversetConnectivity,
)
from repro.partition import PARTITION_METHODS
from repro.partition.multilevel import multilevel_partition
from repro.partition.rcb import rcb_element_node_partition
from repro.partition.renumber import RankNumbering, build_numbering


@dataclass
class GlobalDonorSet:
    """A donor set expressed in composite (global application) ids."""

    receptors: np.ndarray
    donors: np.ndarray
    weights: np.ndarray

    def interpolate(self, field: np.ndarray) -> np.ndarray:
        """Evaluate a composite field at the receptors."""
        vals = field[self.donors]
        if vals.ndim == 3:
            return np.einsum("mi,mic->mc", self.weights, vals)
        return np.einsum("mi,mi->m", self.weights, vals)


class CompositeMesh:
    """All component meshes of a turbine system as one DoF space."""

    def __init__(
        self,
        world: SimWorld,
        system: TurbineMeshSystem,
        partition_method: str = "parmetis",
    ) -> None:
        self.world = world
        self.system = system
        self.partition_method = partition_method
        self.meshes = system.meshes
        self.mesh_offsets = np.zeros(len(self.meshes) + 1, dtype=np.int64)
        np.cumsum(
            [m.n_nodes for m in self.meshes], out=self.mesh_offsets[1:]
        )
        self.n = int(self.mesh_offsets[-1])
        self._assembler = OversetAssembler(self.meshes)
        self.update_connectivity()
        self._partition()

    # -- overset connectivity (recomputed after mesh motion) -------------------

    def update_connectivity(self) -> None:
        """(Re)build overset connectivity and refresh geometry arrays."""
        self.connectivity: OversetConnectivity = self._assembler.assemble()
        off = self.mesh_offsets
        self.statuses = np.concatenate(
            [st for st in self.connectivity.statuses]
        )
        self.donor_sets = [
            GlobalDonorSet(
                receptors=ds.receptors + off[ds.receptor_mesh],
                donors=ds.donors + off[ds.donor_mesh],
                weights=ds.weights,
            )
            for ds in self.connectivity.donor_sets
        ]
        self.coords = np.concatenate([m.coords for m in self.meshes])
        self.node_volume = np.concatenate(
            [m.node_volume for m in self.meshes]
        )
        edges = []
        areas = []
        lengths = []
        dirs = []
        for k, m in enumerate(self.meshes):
            edges.append(m.edges + off[k])
            areas.append(m.edge_area)
            lengths.append(m.edge_length)
            dirs.append(m.edge_dir)
        all_edges = np.concatenate(edges)
        all_areas = np.concatenate(areas)
        all_lengths = np.concatenate(lengths)
        all_dirs = np.concatenate(dirs, axis=0)
        # Drop hole-incident edges: holes are frozen identity rows and, by
        # the assembler's invariant, never border an active FIELD stencil.
        hole = self.statuses == NodeStatus.HOLE
        keep = ~(hole[all_edges[:, 0]] | hole[all_edges[:, 1]])
        self.edges = all_edges[keep]
        self.edge_area = all_areas[keep]
        self.edge_length = all_lengths[keep]
        self.edge_dir = all_dirs[keep]
        self.n_edges = self.edges.shape[0]

        # Background boundary faces: the open dual faces through which
        # inflow/outflow mass and momentum enter or leave the domain (the
        # edge-based operators only close interior dual surfaces).
        sides = {"xlo": (0, False), "xhi": (0, True), "ylo": (1, False),
                 "yhi": (1, True), "zlo": (2, False), "zhi": (2, True)}
        bnodes = []
        bvecs = []
        bg = self.meshes[0]
        for _name, (axis, hi) in sides.items():
            ids, vecs = bg.boundary_face_vectors(axis, hi)
            bnodes.append(ids)  # background offset is 0
            bvecs.append(vecs)
        self.boundary_face_nodes = np.concatenate(bnodes)
        self.boundary_face_vectors = np.concatenate(bvecs, axis=0)

        # Grid velocity (ALE flux): rotating blade meshes move.
        self.grid_velocity = np.zeros((self.n, 3))
        for k, m in enumerate(self.meshes[1:], start=1):
            rot = self.system.rotations[k - 1]
            self.grid_velocity[off[k] : off[k + 1]] = rot.grid_velocity(
                m.coords
            )

        self._lsq_normal = None  # geometry moved

    def lsq_normal_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Normal matrices of the weighted least-squares gradient
        (:func:`repro.core.operators.least_squares_gradient`) and the mask
        of the degenerate nodes they are regularized on.

        Geometry only, so they are accumulated on first use after a
        connectivity update and kept until the next one, not rebuilt on
        each of the gradient's calls per Picard iteration.  Read-only.
        """
        if self._lsq_normal is None:
            a, b = self.edges[:, 0], self.edges[:, 1]
            d = self.coords[b] - self.coords[a]
            w = 1.0 / np.einsum("ed,ed->e", d, d)
            # Per-edge outer products; both endpoints accumulate identical
            # terms.
            M_e = w[:, None, None] * d[:, :, None] * d[:, None, :]
            M = np.zeros((self.n, 3, 3))
            np.add.at(M, a, M_e)
            np.add.at(M, b, M_e)
            # Regularize isolated/degenerate nodes (e.g. hole nodes with
            # no edges).
            degenerate = np.abs(np.linalg.det(M)) < 1e-300
            M[degenerate] = np.eye(3)
            self._lsq_normal = (M, degenerate)
        return self._lsq_normal

    # -- decomposition ----------------------------------------------------------

    def node_graph(self) -> sparse.csr_matrix:
        """Composite node adjacency over active edges."""
        e = self.edges
        ones = np.ones(e.shape[0])
        g = sparse.coo_matrix(
            (
                np.concatenate([ones, ones]),
                (
                    np.concatenate([e[:, 0], e[:, 1]]),
                    np.concatenate([e[:, 1], e[:, 0]]),
                ),
            ),
            shape=(self.n, self.n),
        )
        return g.tocsr()

    def all_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated element connectivity (composite ids) + centroids."""
        cells = np.concatenate(
            [
                m.cells + self.mesh_offsets[k]
                for k, m in enumerate(self.meshes)
            ]
        )
        centroids = self.coords[cells].mean(axis=1)
        return cells, centroids

    def _partition(self) -> None:
        nranks = self.world.size
        self.parts = partition_nodes(self, self.partition_method, nranks)
        self.numbering: RankNumbering = build_numbering(self.parts, nranks)

    # -- boundary sets in composite ids -------------------------------------------

    def boundary(self, mesh_index: int, name: str) -> np.ndarray:
        """Composite ids of one mesh's named boundary."""
        return (
            self.meshes[mesh_index].boundaries[name]
            + self.mesh_offsets[mesh_index]
        )

    def background_boundary(self, name: str) -> np.ndarray:
        """Composite ids of a background-side boundary set."""
        return self.boundary(0, name)

    def fringe_nodes(self) -> np.ndarray:
        """Composite ids of all overset receptor rows."""
        return np.flatnonzero(self.statuses == NodeStatus.FRINGE)

    def hole_nodes(self) -> np.ndarray:
        """Composite ids of all deactivated rows."""
        return np.flatnonzero(self.statuses == NodeStatus.HOLE)

    def wall_nodes(self) -> np.ndarray:
        """Composite ids of all near-body wall (no-slip) nodes."""
        out = []
        for k, m in enumerate(self.meshes):
            if "wall" in m.boundaries:
                out.append(m.boundaries["wall"] + self.mesh_offsets[k])
        return (
            np.unique(np.concatenate(out))
            if out
            else np.zeros(0, dtype=np.int64)
        )


def partition_nodes(
    comp: CompositeMesh, method: str, nranks: int
) -> np.ndarray:
    """Owning rank of every composite node: the decomposition a
    simulation of ``comp`` on ``nranks`` ranks runs under ``method``."""
    if method == "rcb":
        # Element-based RCB with lowest-rank node ownership — the paper's
        # original workflow, with its sliver/imbalance pathology on overset
        # systems (Figs. 4-5).
        cells, centroids = comp.all_cells()
        return rcb_element_node_partition(centroids, cells, comp.n, nranks)
    if method == "parmetis":
        # ParMETIS-style: partition the node graph with vertex weight
        # degree + 1 (a full stencil row's nnz) so nonzeros balance.
        g = comp.node_graph()
        vwgt = np.diff(g.indptr).astype(np.float64) + 1.0
        return multilevel_partition(g, nranks, vertex_weights=vwgt)
    raise ValueError(
        f"unknown partition_method {method!r}; options {PARTITION_METHODS}"
    )


def pressure_pattern(comp: CompositeMesh) -> sparse.csr_matrix:
    """Sparsity proxy of the pressure matrix whose nonzeros per rank Figs.
    5 and 10 count: the stencil plus diagonal on FIELD rows, the diagonal
    alone on constraint rows (fringe and hole rows are identity rows)."""
    g = comp.node_graph().tocoo()
    keep = (comp.statuses == NodeStatus.FIELD)[g.row]
    diag = np.arange(comp.n)
    rows = np.concatenate([g.row[keep], diag])
    cols = np.concatenate([g.col[keep], diag])
    return sparse.csr_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(comp.n, comp.n)
    )
