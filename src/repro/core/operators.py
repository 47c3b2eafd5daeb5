"""Edge-based finite-volume operators.

The discrete operators of Nalu-Wind's edge-based low-Mach scheme on the
composite mesh: two-point-flux diffusion coefficients, first-order-upwind
advection coefficients from ALE mass fluxes, Green-Gauss node gradients,
and the edge divergence used by the pressure projection.  Everything is a
vectorized sweep over the active edge list.
"""

from __future__ import annotations

import numpy as np

from repro.core.composite import CompositeMesh


def edge_average(comp: CompositeMesh, field: np.ndarray) -> np.ndarray:
    """Arithmetic edge average of a nodal field (scalar or vector)."""
    a, b = comp.edges[:, 0], comp.edges[:, 1]
    return 0.5 * (field[a] + field[b])


def diffusion_coefficients(
    comp: CompositeMesh, diffusivity: np.ndarray | float
) -> np.ndarray:
    """Two-point-flux diffusion coefficient per edge: ``k_e A_e / d_e``.

    High-aspect-ratio blade cells make these coefficients wildly
    anisotropic, which is exactly what degrades the pressure-Poisson
    conditioning the paper's AMG setup has to cope with.
    """
    if np.isscalar(diffusivity):
        k_e = float(diffusivity)
    else:
        k_e = edge_average(comp, np.asarray(diffusivity))
    return k_e * comp.edge_area / comp.edge_length


def mass_flux(
    comp: CompositeMesh,
    velocity: np.ndarray,
    density: float,
    pressure: np.ndarray | None = None,
    tau: float | np.ndarray = 0.0,
) -> np.ndarray:
    """ALE mass flux per edge, with optional Rhie-Chow dissipation.

    ``mdot_e = rho (u_e - u_grid,e) . S_e`` with
    ``S_e = A_e n_e``; the Rhie-Chow term subtracts
    ``tau_e * A_e/d_e * (p_b - p_a - grad(p)_e . d_e)`` to suppress
    pressure-velocity decoupling on the collocated layout.  ``tau`` is the
    projection timescale (scalar, or per edge): the SIMPLE-consistent
    choice is ``rho * V / a_p`` averaged to the edge, which shrinks in the
    advection-dominated near-wall cells and keeps the correction bounded
    on high-aspect-ratio blade meshes.
    """
    rel = velocity - comp.grid_velocity
    u_e = edge_average(comp, rel)
    S = comp.edge_area[:, None] * comp.edge_dir
    mdot = density * np.einsum("ed,ed->e", u_e, S)
    if pressure is not None and np.any(np.asarray(tau) > 0.0):
        a, b = comp.edges[:, 0], comp.edges[:, 1]
        gp = least_squares_gradient(comp, pressure)
        gp_e = 0.5 * (gp[a] + gp[b])
        d_vec = comp.edge_dir * comp.edge_length[:, None]
        correction = (pressure[b] - pressure[a]) - np.einsum(
            "ed,ed->e", gp_e, d_vec
        )
        mdot -= tau * (comp.edge_area / comp.edge_length) * correction
    return mdot


def upwind_advection_coefficients(mdot: np.ndarray) -> np.ndarray:
    """First-order upwind advection 2x2 blocks per edge.

    Returns:
        ``(E, 4)`` contributions in the ``[(a,a), (a,b), (b,a), (b,b)]``
        layout: row ``a`` receives the outflux Jacobian, row ``b`` its
        negative.
    """
    pos = np.maximum(mdot, 0.0)
    neg = np.minimum(mdot, 0.0)
    return np.stack([pos, neg, -pos, -neg], axis=1)


def diffusion_pairs(g_e: np.ndarray) -> np.ndarray:
    """Symmetric diffusion 2x2 blocks per edge (graph-Laplacian stencil)."""
    return np.stack([g_e, -g_e, -g_e, g_e], axis=1)


def edge_divergence(comp: CompositeMesh, edge_flux: np.ndarray) -> np.ndarray:
    """Nodal divergence of an edge flux: ``div_a = sum_e +-flux_e``.

    Flux is positive from edge endpoint ``a`` toward ``b``.
    """
    out = np.zeros(comp.n)
    a, b = comp.edges[:, 0], comp.edges[:, 1]
    np.add.at(out, a, edge_flux)
    np.add.at(out, b, -edge_flux)
    return out


def green_gauss_gradient(comp: CompositeMesh, field: np.ndarray) -> np.ndarray:
    """Green-Gauss nodal gradient from edge-midpoint values."""
    a, b = comp.edges[:, 0], comp.edges[:, 1]
    fbar = 0.5 * (field[a] + field[b])
    S = comp.edge_area[:, None] * comp.edge_dir
    flux = fbar[:, None] * S
    out = np.zeros((comp.n, 3))
    np.add.at(out, a, flux)
    np.add.at(out, b, -flux)
    return out / comp.node_volume[:, None]


def boundary_mass_flux(
    comp: CompositeMesh, velocity: np.ndarray, density: float
) -> np.ndarray:
    """Outward boundary mass flux per node (zero off the boundary).

    ``bflux_a = rho (u_a - u_grid,a) . A_out,a`` over the background's open
    sides; near-body walls are no-slip relative to the grid (zero flux) and
    near-body rims are overset constraint rows, so only the background's
    faces carry flux.
    """
    out = np.zeros(comp.n)
    ids = comp.boundary_face_nodes
    rel = velocity[ids] - comp.grid_velocity[ids]
    flux = density * np.einsum("nd,nd->n", rel, comp.boundary_face_vectors)
    # Rim/corner nodes appear on several sides: accumulate their faces.
    np.add.at(out, ids, flux)
    return out


def least_squares_gradient(
    comp: CompositeMesh, field: np.ndarray
) -> np.ndarray:
    """Weighted least-squares nodal gradient from edge differences.

    Solves, per node, ``min sum_e w_e (grad . d_e - (f_b - f_a))^2`` with
    ``w_e = 1/|d_e|^2``.  Exact for linear fields on arbitrary meshes —
    unlike Green-Gauss, it does not overshoot on the skewed, stretched
    near-wall cells of the blade O-grids, which is what keeps the
    projection's velocity correction stable there.  The normal matrices
    depend on the geometry only and come from
    :meth:`CompositeMesh.lsq_normal_matrices`, built once per connectivity
    update.
    """
    a, b = comp.edges[:, 0], comp.edges[:, 1]
    d = comp.coords[b] - comp.coords[a]
    w = 1.0 / np.einsum("ed,ed->e", d, d)
    df = field[b] - field[a]
    # Both endpoints accumulate identical terms.
    r_e = (w * df)[:, None] * d
    r = np.zeros((comp.n, 3))
    np.add.at(r, a, r_e)
    np.add.at(r, b, r_e)
    M, degenerate = comp.lsq_normal_matrices()
    r[degenerate] = 0.0
    return np.linalg.solve(M, r[:, :, None])[..., 0]


def divergence_of_velocity(
    comp: CompositeMesh, velocity: np.ndarray, density: float
) -> np.ndarray:
    """Nodal mass imbalance ``div(rho u)`` including boundary faces."""
    mdot = mass_flux(comp, velocity, density)
    return edge_divergence(comp, mdot) + boundary_mass_flux(
        comp, velocity, density
    )
