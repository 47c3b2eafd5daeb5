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

import weakref
from dataclasses import dataclass
from functools import cached_property

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
        self._static_sets()
        self.update_connectivity()
        self._partition()

    def _static_sets(self) -> None:
        """Node sets and faces that no motion moves, built once: the
        background never moves and boundary ids are topology."""
        walls = [
            m.boundaries["wall"] + self.mesh_offsets[k]
            for k, m in enumerate(self.meshes)
            if "wall" in m.boundaries
        ]
        self._wall = _readonly(
            np.unique(np.concatenate(walls))
            if walls
            else np.zeros(0, dtype=np.int64)
        )
        #: Background inflow and lateral sides: every far-field side but
        #: the outflow plane.
        self.far_field_nodes = _readonly(
            np.unique(
                np.concatenate(
                    [
                        self.background_boundary(s)
                        for s in ("xlo", "ylo", "yhi", "zlo", "zhi")
                    ]
                )
            )
        )
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
        self.boundary_face_nodes = _readonly(np.concatenate(bnodes))
        self.boundary_face_vectors = _readonly(np.concatenate(bvecs, axis=0))

    # -- overset connectivity (recomputed after mesh motion) -------------------

    def update_connectivity(self) -> None:
        """(Re)build overset connectivity, refresh geometry arrays and
        start a new :class:`PositionStore`."""
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

        # Grid velocity (ALE flux): rotating blade meshes move.
        self.grid_velocity = np.zeros((self.n, 3))
        for k, m in enumerate(self.meshes[1:], start=1):
            rot = self.system.rotations[k - 1]
            self.grid_velocity[off[k] : off[k + 1]] = rot.grid_velocity(
                m.coords
            )

        #: What the operators derive from this position alone; the one
        #: reset point is here.
        self.store = PositionStore(self)

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
        """Composite ids of all overset receptor rows (read-only)."""
        return self.store.fringe

    def hole_nodes(self) -> np.ndarray:
        """Composite ids of all deactivated rows (read-only)."""
        return self.store.hole

    def wall_nodes(self) -> np.ndarray:
        """Composite ids of all near-body wall (no-slip) nodes (read-only;
        boundary ids are topology, so built once)."""
        return self._wall


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def endpoint_sum(
    n: int, edges: np.ndarray, per_edge: np.ndarray, signed: bool = False
) -> np.ndarray:
    """Sum a per-edge quantity onto both endpoints of every edge (``b``
    gets ``-v`` when ``signed``: an edge flux's divergence).

    Bit for bit ``np.add.at(out, a, v); np.add.at(out, b, +-v)`` on a zero
    ``out``: ``np.bincount`` also adds each node's terms one at a time in
    that order, starting from 0.0, at a fraction of the cost.
    """
    index = edges.T.ravel()  # every a, then every b
    flat = per_edge.reshape(per_edge.shape[0], -1)
    sums = [
        np.bincount(
            index,
            weights=np.concatenate(
                (flat[:, c], -flat[:, c] if signed else flat[:, c])
            ),
            minlength=n,
        )
        for c in range(flat.shape[1])
    ]
    return np.stack(sums, axis=1).reshape((n,) + per_edge.shape[1:])


class PositionStore:
    """What depends only on where the meshes are, for one position.

    :meth:`CompositeMesh.update_connectivity` (which ``set_state`` also
    calls) replaces the store, and is its only reset point; within one
    position every entry is computed on first use, then the same
    read-only object is returned.
    Holds the fringe and hole ids, every equation's constraint rows, and
    the edge geometry the operators read on each call.
    """

    def __init__(self, comp: CompositeMesh) -> None:
        # Weak, and keyed by equation name: the store sits inside the
        # mesh, so a strong back-reference would be a reference cycle.
        self._comp = weakref.proxy(comp)
        self._constraint_rows: dict[str, np.ndarray] = {}

    @cached_property
    def fringe(self) -> np.ndarray:
        return _readonly(
            np.flatnonzero(self._comp.statuses == NodeStatus.FRINGE)
        )

    @cached_property
    def hole(self) -> np.ndarray:
        return _readonly(
            np.flatnonzero(self._comp.statuses == NodeStatus.HOLE)
        )

    def constraint_rows(self, eq) -> np.ndarray:
        """Dirichlet + overset fringe + hole rows of equation ``eq``."""
        rows = self._constraint_rows.get(eq.name)
        if rows is None:
            rows = self._constraint_rows[eq.name] = _readonly(
                np.unique(
                    np.concatenate([eq.dirichlet, self.fringe, self.hole])
                )
            )
        return rows

    @cached_property
    def lsq_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Least-squares edge vectors ``d_e = x_b - x_a`` and weights
        ``w_e = 1/|d_e|^2``."""
        comp = self._comp
        a, b = comp.edges[:, 0], comp.edges[:, 1]
        d = comp.coords[b] - comp.coords[a]
        return _readonly(d), _readonly(1.0 / np.einsum("ed,ed->e", d, d))

    @cached_property
    def lsq_normal(self) -> tuple[np.ndarray, np.ndarray]:
        """Normal matrices of the weighted least-squares gradient
        (:func:`repro.core.operators.least_squares_gradient`) and the mask
        of the degenerate nodes they are regularized on."""
        comp = self._comp
        d, w = self.lsq_edges
        # Per-edge outer products; both endpoints accumulate identical
        # terms.
        M_e = w[:, None, None] * d[:, :, None] * d[:, None, :]
        M = endpoint_sum(comp.n, comp.edges, M_e)
        # Regularize isolated/degenerate nodes (e.g. hole nodes with
        # no edges).
        degenerate = np.abs(np.linalg.det(M)) < 1e-300
        M[degenerate] = np.eye(3)
        return _readonly(M), _readonly(degenerate)

    @cached_property
    def face_vectors(self) -> np.ndarray:
        """Dual-face area vectors ``S_e = A_e n_e`` per edge."""
        comp = self._comp
        return _readonly(comp.edge_area[:, None] * comp.edge_dir)


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
