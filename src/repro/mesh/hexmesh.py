"""Unstructured hex mesh with edge-based finite-volume metrics.

Nalu-Wind's low-Mach discretization used for wind-turbine runs is the
edge-based scheme: control volumes are nodal duals, and fluxes live on the
element edges, giving the ~7-9 nonzeros per matrix row the paper reports
("we have on average eight entries per row", §5.3).  :class:`HexMesh` stores
exactly what that scheme needs:

* node coordinates and dual volumes,
* element connectivity (for visualization/donor search),
* edges with their dual-face area, length, and unit direction,
* named boundary node sets.

Metrics are computed from the generating block mapping (tangent vectors via
central differences), so body-fitted stretched blade meshes get the true
anisotropic coefficients that make the pressure-Poisson systems as badly
conditioned as the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.mesh.topology import (
    BlockTopology,
    boundary_node_sets,
    build_block_topology,
)


def _tangents(X: np.ndarray, axis: int, periodic: bool) -> np.ndarray:
    """dX/dindex along a lattice axis (central, one-sided at open ends)."""
    if periodic:
        return (np.roll(X, -1, axis=axis) - np.roll(X, 1, axis=axis)) / 2.0
    return np.gradient(X, axis=axis)


@dataclass
class MeshStats:
    """Quality/size summary used for the Table 1 reproduction."""

    n_nodes: int
    n_cells: int
    n_edges: int
    max_aspect_ratio: float
    volume_ratio: float


class HexMesh:
    """One component mesh (background block or body-fitted blade block)."""

    def __init__(
        self,
        name: str,
        coords: np.ndarray,
        topology: BlockTopology,
        boundaries: dict[str, np.ndarray],
    ) -> None:
        self.name = name
        self.coords = np.ascontiguousarray(coords, dtype=np.float64)
        self.topology = topology
        self.cells = topology.cells
        self.edges = topology.edges
        self.edge_axis = topology.edge_axis
        self.boundaries = boundaries
        self.n_nodes = self.coords.shape[0]
        self._graph: sparse.csr_matrix | None = None
        self.edge_area = np.zeros(self.edges.shape[0])
        self.edge_length = np.zeros(self.edges.shape[0])
        self.edge_dir = np.zeros((self.edges.shape[0], 3))
        self.node_volume = np.zeros(self.n_nodes)
        self.update_metrics()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_block(
        cls,
        name: str,
        X: np.ndarray,
        periodic: tuple[bool, bool, bool] = (False, False, False),
    ) -> "HexMesh":
        """Build from a structured coordinate lattice ``X[nx, ny, nz, 3]``."""
        if X.ndim != 4 or X.shape[3] != 3:
            raise ValueError(f"expected (nx, ny, nz, 3) lattice, got {X.shape}")
        shape = X.shape[:3]
        topo = build_block_topology(shape, periodic)
        bnds = boundary_node_sets(shape, periodic)
        return cls(name, X.reshape(-1, 3), topo, bnds)

    # -- metrics ------------------------------------------------------------

    def update_metrics(self) -> None:
        """(Re)compute edge areas/lengths/directions and dual volumes.

        Called at construction and after mesh motion.  For rigid motion the
        scalar metrics are invariant; only directions change, but a full
        recompute keeps the code path identical to general motion.
        """
        shape = self.topology.shape
        periodic = self.topology.periodic
        X = self.coords.reshape(*shape, 3)

        t = [_tangents(X, a, periodic[a]) for a in range(3)]

        # Dual volumes: |det(t0, t1, t2)| per node, halved at each open
        # boundary the node sits on (the dual cell only extends inward).
        T = np.stack(t, axis=-1)  # (nx, ny, nz, 3, 3)
        vol = np.abs(np.linalg.det(T))
        for axis in range(3):
            if periodic[axis]:
                continue
            sl_lo = [slice(None)] * 3
            sl_hi = [slice(None)] * 3
            sl_lo[axis] = 0
            sl_hi[axis] = shape[axis] - 1
            vol[tuple(sl_lo)] *= 0.5
            vol[tuple(sl_hi)] *= 0.5
        self.node_volume = vol.reshape(-1)

        # Per-axis boundary halving factors: a dual face only extends half
        # a spacing inward from an open boundary (the same convention the
        # volumes use), so edge areas shrink at *transverse* open sides and
        # match the boundary-face closure exactly at rims.
        factors = []
        for axis in range(3):
            f = np.ones(shape[axis])
            if not periodic[axis]:
                f[0] = 0.5
                f[-1] = 0.5
            sl = [None, None, None]
            sl[axis] = slice(None)
            factors.append(f[tuple(sl)])

        # Edge metrics per logical axis: area of the transverse dual face at
        # the edge midpoint = |t_b x t_c| averaged over the two endpoints.
        areas = []
        lengths = []
        dirs = []
        for axis in range(3):
            b, c = [a for a in range(3) if a != axis]
            cross = np.cross(t[b], t[c])
            cross_mag = (
                np.linalg.norm(cross, axis=-1) * factors[b] * factors[c]
            )
            if periodic[axis]:
                e_vec = (np.roll(X, -1, axis=axis) - X).reshape(-1, 3)
                a_mid = (
                    (cross_mag + np.roll(cross_mag, -1, axis=axis)) / 2.0
                ).reshape(-1)
            else:
                sl = [slice(None)] * 3
                sl[axis] = slice(0, shape[axis] - 1)
                slp = [slice(None)] * 3
                slp[axis] = slice(1, shape[axis])
                e_vec = (X[tuple(slp)] - X[tuple(sl)]).reshape(-1, 3)
                a_mid = (
                    (cross_mag[tuple(sl)] + cross_mag[tuple(slp)]) / 2.0
                ).reshape(-1)
            e_len = np.linalg.norm(e_vec, axis=1)
            if np.any(e_len <= 0):
                raise ValueError(f"mesh {self.name}: degenerate edge found")
            areas.append(a_mid)
            lengths.append(e_len)
            dirs.append(e_vec / e_len[:, None])
        self.edge_area = np.concatenate(areas)
        self.edge_length = np.concatenate(lengths)
        self.edge_dir = np.concatenate(dirs, axis=0)

    # -- derived structure ----------------------------------------------------

    def node_graph(self) -> sparse.csr_matrix:
        """Symmetric node adjacency (pattern of the edge-based operator)."""
        if self._graph is None:
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
                shape=(self.n_nodes, self.n_nodes),
            )
            self._graph = g.tocsr()
        return self._graph

    def boundary_nodes(self, *names: str) -> np.ndarray:
        """Union of the named boundary node sets (sorted unique)."""
        missing = [n for n in names if n not in self.boundaries]
        if missing:
            raise KeyError(
                f"mesh {self.name}: no boundary {missing}; "
                f"have {sorted(self.boundaries)}"
            )
        if not names:
            return np.array([], dtype=np.int64)
        return np.unique(np.concatenate([self.boundaries[n] for n in names]))

    def all_boundary_nodes(self) -> np.ndarray:
        """All nodes on any open boundary side."""
        return self.boundary_nodes(*self.boundaries.keys())

    def stats(self) -> MeshStats:
        """Size and quality summary (Table 1 analogue)."""
        # Aspect ratio per node: max/min incident edge length.
        n = self.n_nodes
        e = self.edges
        big = np.full(n, -np.inf)
        small = np.full(n, np.inf)
        for col in (0, 1):
            np.maximum.at(big, e[:, col], self.edge_length)
            np.minimum.at(small, e[:, col], self.edge_length)
        ar = big / small
        vol = self.node_volume
        return MeshStats(
            n_nodes=self.n_nodes,
            n_cells=self.cells.shape[0],
            n_edges=self.edges.shape[0],
            max_aspect_ratio=float(np.max(ar)),
            volume_ratio=float(np.max(vol) / np.min(vol)),
        )

    def boundary_face_vectors(
        self, axis: int, hi: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Outward dual-face area vectors on one open block side.

        The edge-based scheme closes each interior dual surface with element
        edges, but dual cells on open boundaries also have a boundary face;
        inflow/outflow mass and momentum fluxes live there.

        Args:
            axis: logical block axis (0/1/2) of the side.
            hi: False for the low side, True for the high side.

        Returns:
            ``(node_ids, vectors)``: boundary node ids and their outward
            area vectors (halved at rims shared with other open sides, the
            same convention as the dual volumes).
        """
        shape = self.topology.shape
        periodic = self.topology.periodic
        if periodic[axis]:
            raise ValueError(f"axis {axis} is periodic: no boundary side")
        X = self.coords.reshape(*shape, 3)
        t = [_tangents(X, a, periodic[a]) for a in range(3)]
        b, c = [a for a in range(3) if a != axis]
        cross = np.cross(t[b], t[c])
        sl = [slice(None)] * 3
        sl[axis] = shape[axis] - 1 if hi else 0
        face = cross[tuple(sl)]
        t_axis = t[axis][tuple(sl)]
        # Orient outward: along -t_axis on the low side, +t_axis on high.
        sign = np.sign(np.einsum("...d,...d->...", face, t_axis))
        sign = np.where(sign == 0, 1.0, sign)
        if not hi:
            sign = -sign
        face = face * sign[..., None]
        # Halve at rims shared with other open boundaries.
        for a_t in (b, c):
            if periodic[a_t]:
                continue
            pos = a_t if a_t < axis else a_t - 1
            rim_lo = [slice(None)] * 2
            rim_hi = [slice(None)] * 2
            rim_lo[pos] = 0
            rim_hi[pos] = shape[a_t] - 1
            face[tuple(rim_lo)] *= 0.5
            face[tuple(rim_hi)] *= 0.5
        from repro.mesh.topology import node_ids

        ids = node_ids(shape)[tuple(sl)].ravel()
        return ids, face.reshape(-1, 3)

    def cell_centroids(self) -> np.ndarray:
        """Mean of each cell's corner coordinates."""
        return self.coords[self.cells].mean(axis=1)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned ``(lo, hi)`` corners."""
        return self.coords.min(axis=0), self.coords.max(axis=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HexMesh({self.name!r}, nodes={self.n_nodes}, "
            f"cells={self.cells.shape[0]}, edges={self.edges.shape[0]})"
        )
