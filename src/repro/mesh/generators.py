"""Mesh generators: background wake blocks and body-fitted blade blocks.

These reproduce (at reduced scale) the two mesh roles of the paper's overset
setup (§2, Fig. 1): a wake-capturing background block with grading toward
the turbine, and body-fitted near-blade meshes with geometric boundary-layer
stretching.  The blade mesh is an O-type grid around an elongated, twisted,
tapered blade-like surface; the first-cell height is small relative to the
chord, producing the high-aspect-ratio cells and "vastly different" cell
sizes that make the pressure-Poisson systems ill conditioned (paper §1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.hexmesh import HexMesh
from repro.mesh.topology import (
    BlockTopology,
    boundary_node_sets,
    build_block_topology,
)


def graded_axis(lo: float, hi: float, n: int, cluster: float = 0.0, center: float = 0.5) -> np.ndarray:
    """1-D coordinate array with optional tanh clustering.

    Args:
        lo: first coordinate.
        hi: last coordinate.
        n: number of nodes.
        cluster: 0 gives a uniform axis; larger values concentrate nodes
            near the relative position ``center``.
        center: relative position in [0, 1] the clustering targets.

    Returns:
        Monotone array of ``n`` coordinates spanning ``[lo, hi]``.
    """
    s = np.linspace(0.0, 1.0, n)
    if cluster > 0:
        # Cubic stretching: phi'(t) = 1 + 3*cluster*t^2 is smallest at the
        # cluster center, so node spacing is finest there and grows toward
        # the far boundaries.
        t = s - center
        phi = t * (1.0 + cluster * t * t)
        p0 = (0.0 - center) * (1.0 + cluster * center * center)
        p1 = (1.0 - center) * (1.0 + cluster * (1.0 - center) ** 2)
        s = (phi - p0) / (p1 - p0)
    return lo + (hi - lo) * s


def geometric_stretching(n: int, first_frac: float) -> np.ndarray:
    """Normalized wall-normal distribution with geometric growth.

    Args:
        n: number of nodes (first at 0, last at 1).
        first_frac: first spacing as a fraction of the total extent; small
            values give boundary-layer stretching (high aspect ratio).

    Returns:
        Increasing array ``r`` with ``r[0] = 0``, ``r[-1] = 1`` and
        ``r[1] - r[0] ~= first_frac``.
    """
    if n < 2:
        raise ValueError("need at least 2 wall-normal nodes")
    m = n - 1
    if first_frac * m >= 1.0:
        return np.linspace(0.0, 1.0, n)
    # Solve first_frac * (g^m - 1) / (g - 1) = 1 for growth ratio g.
    g = (1.0 / first_frac) ** (1.0 / (m - 1)) if m > 1 else 1.0
    for _ in range(60):
        f = first_frac * (g**m - 1.0) / (g - 1.0) - 1.0
        df = first_frac * (
            (m * g ** (m - 1)) * (g - 1.0) - (g**m - 1.0)
        ) / (g - 1.0) ** 2
        step = f / df
        g -= step
        if abs(step) < 1e-14:
            break
    k = np.arange(n)
    r = first_frac * (g**k - 1.0) / (g - 1.0)
    r[-1] = 1.0
    return r


def make_background_mesh(
    name: str,
    extent: tuple[tuple[float, float], tuple[float, float], tuple[float, float]],
    shape: tuple[int, int, int],
    cluster_center: tuple[float, float, float] | None = None,
    cluster: float = 2.0,
) -> HexMesh:
    """Wake-capturing background block, optionally graded toward a point.

    Args:
        name: mesh name.
        extent: per-direction ``(lo, hi)`` physical bounds.
        shape: nodes per direction.
        cluster_center: physical point toward which grading concentrates
            nodes (the turbine location); ``None`` gives a uniform block.
        cluster: tanh clustering strength.

    Returns:
        The background :class:`HexMesh` (inflow at ``xlo``, outflow ``xhi``).
    """
    axes = []
    for a in range(3):
        lo, hi = extent[a]
        if cluster_center is None:
            axes.append(graded_axis(lo, hi, shape[a]))
        else:
            rel = (cluster_center[a] - lo) / (hi - lo)
            axes.append(graded_axis(lo, hi, shape[a], cluster=cluster, center=rel))
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return HexMesh.from_block(name, X)


@dataclass(frozen=True)
class BladeSpec:
    """Geometric parameters of a body-fitted blade mesh.

    The blade is an idealized tapered, twisted wing: elliptical sections of
    chord ``chord(s)`` and thickness ratio ``thickness``, spanning
    ``span`` along +z from ``root_center``, with linear twist.
    """

    span: float = 60.0
    root_chord: float = 4.0
    tip_chord: float = 1.5
    thickness: float = 0.2
    twist_root_deg: float = 20.0
    twist_tip_deg: float = 2.0
    outer_radius: float = 8.0
    first_cell_frac: float = 2e-3
    n_around: int = 36
    n_radial: int = 16
    n_span: int = 20


def blade_lattice(
    spec: BladeSpec,
    root_center: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> np.ndarray:
    """Node coordinates ``X[around, radial, span, 3]`` of the blade O-grid
    of :func:`make_blade_mesh`."""
    u = np.linspace(0.0, 2.0 * np.pi, spec.n_around, endpoint=False)
    r = geometric_stretching(spec.n_radial, spec.first_cell_frac)
    s = np.linspace(0.0, 1.0, spec.n_span)

    U, R, S = np.meshgrid(u, r, s, indexing="ij")
    chord = spec.root_chord + (spec.tip_chord - spec.root_chord) * S
    twist = np.deg2rad(
        spec.twist_root_deg + (spec.twist_tip_deg - spec.twist_root_deg) * S
    )
    a = chord / 2.0
    b = chord * spec.thickness / 2.0

    # Blade-surface section (ellipse rotated by local twist).
    xs = a * np.cos(U)
    ys = b * np.sin(U)
    surf_x = xs * np.cos(twist) - ys * np.sin(twist)
    surf_y = xs * np.sin(twist) + ys * np.cos(twist)

    # Outer O-boundary: circle of outer_radius.
    out_x = spec.outer_radius * np.cos(U)
    out_y = spec.outer_radius * np.sin(U)

    X = np.empty(U.shape + (3,))
    X[..., 0] = root_center[0] + surf_x + R * (out_x - surf_x)
    X[..., 1] = root_center[1] + surf_y + R * (out_y - surf_y)
    X[..., 2] = root_center[2] + S * spec.span
    return X


#: The blade O-grid wraps around logical axis 0.
BLADE_PERIODIC = (True, False, False)
#: Lattice faces of the blade O-grid -> their roles: the radial axis 1 runs
#: from the blade surface to the outer rim, axis 2 from root to tip.
BLADE_BOUNDARIES = {"ylo": "wall", "yhi": "outer", "zlo": "root", "zhi": "tip"}


def blade_block(spec: BladeSpec) -> tuple[BlockTopology, dict[str, np.ndarray]]:
    """Topology and named boundary node sets of :func:`make_blade_mesh`'s
    O-grid, which depend on ``spec``'s node counts only."""
    shape = (spec.n_around, spec.n_radial, spec.n_span)
    boundaries = boundary_node_sets(shape, BLADE_PERIODIC)
    for face, role in BLADE_BOUNDARIES.items():
        boundaries[role] = boundaries.pop(face)
    return build_block_topology(shape, BLADE_PERIODIC), boundaries


def make_blade_mesh(
    name: str,
    spec: BladeSpec,
    root_center: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> HexMesh:
    """Body-fitted O-grid around an idealized blade.

    The grid is periodic in the wrap-around direction and geometrically
    stretched away from the surface; with the default
    ``first_cell_frac=2e-3`` the near-wall cells have aspect ratios of
    O(10^2-10^3), reproducing the conditioning pathology of blade-resolved
    meshes.

    Returns:
        :class:`HexMesh` with boundaries ``ylo``/``yhi`` relabeled to
        ``wall`` (blade surface) and ``outer`` (overset fringe donor side),
        and span ends ``zlo`` -> ``root``, ``zhi`` -> ``tip``.
    """
    X = blade_lattice(spec, root_center)
    return HexMesh(name, X.reshape(-1, 3), *blade_block(spec))
