"""The governing-equation systems: momentum, pressure-Poisson, scalar.

The CFD model of the paper (§1): "mass-continuity, Poisson-type equation
for pressure and Helmholtz-type equations for transport of momentum and
other scalars (e.g., those for turbulence models)", advanced by a Picard
iteration.  Momentum and the turbulence scalar are solved with GMRES and
the SGS2 two-stage Gauss-Seidel preconditioner; pressure-Poisson with
GMRES preconditioned by a BoomerAMG V-cycle (§4.2).
"""

from __future__ import annotations

import numpy as np

from repro.amg.cycle import AMGPreconditioner
from repro.amg.hierarchy import AMGHierarchy
from repro.assembly.global_assembly import assemble_global_vector
from repro.assembly.local import LocalAssembler
from repro.core.equation_system import EquationSystem
from repro.core.operators import (
    diffusion_coefficients,
    diffusion_pairs,
    edge_average,
    mass_flux,
    upwind_advection_coefficients,
)
from repro.linalg.parcsr import ParCSRMatrix
from repro.linalg.parvector import ParVector
from repro.smoothers.factory import make_smoother


class MomentumSystem(EquationSystem):
    """Helmholtz-type momentum transport, solved component-wise.

    The advection-diffusion operator is assembled once per Picard
    iteration; the three velocity components share it and only re-assemble
    their RHS (Algorithm 2 runs per component).
    """

    name = "momentum"

    def dirichlet_rows(self) -> np.ndarray:
        comp = self.comp
        sides = [
            comp.background_boundary(s)
            for s in ("xlo", "ylo", "yhi", "zlo", "zhi")
        ]
        return np.unique(np.concatenate(sides + [comp.wall_nodes()]))

    def solver_config(self):
        return self.config.momentum_solver

    def make_preconditioner(self, A: ParCSRMatrix):
        return make_smoother(
            "sgs2",
            A,
            inner_sweeps=self.config.sgs_inner,
            outer_sweeps=self.config.sgs_outer,
        )

    def row_diagonal(
        self,
        mdot: np.ndarray,
        mu_eff: np.ndarray,
        boundary_flux: np.ndarray,
    ) -> np.ndarray:
        """Unconstrained momentum diagonal ``a_p`` per node.

        The SIMPLE-consistent projection scales with ``rho V / a_p``;
        computing ``a_p`` from the physics (rather than the assembled
        matrix) keeps it defined on constraint rows too.
        """
        comp = self.comp
        cfg = self.config
        g_e = diffusion_coefficients(comp, mu_eff)
        diag = cfg.density * comp.node_volume / cfg.dt
        a, b = comp.edges[:, 0], comp.edges[:, 1]
        np.add.at(diag, a, np.maximum(mdot, 0.0) + g_e)
        np.add.at(diag, b, np.maximum(-mdot, 0.0) + g_e)
        diag += np.maximum(boundary_flux, 0.0)
        return diag

    def projection_tau(
        self,
        mdot: np.ndarray,
        mu_eff: np.ndarray,
        boundary_flux: np.ndarray,
    ) -> np.ndarray:
        """Per-node projection timescale ``tau = rho V / a_p`` [s].

        Bounded above by ``dt`` (the time term is part of ``a_p``), and
        much smaller in advection/diffusion-dominated near-wall cells —
        which is what keeps the pressure correction stable on the
        high-aspect-ratio blade meshes.
        """
        a_p = self.row_diagonal(mdot, mu_eff, boundary_flux)
        return self.config.density * self.comp.node_volume / a_p

    def boundary_velocity(self, velocity: np.ndarray) -> np.ndarray:
        """Velocity field with every constraint row set to its value."""
        comp = self.comp
        cfg = self.config
        out = velocity.copy()
        far = [
            comp.background_boundary(s)
            for s in ("xlo", "ylo", "yhi", "zlo", "zhi")
        ]
        far_rows = np.unique(np.concatenate(far))
        out[far_rows] = np.asarray(cfg.inflow_velocity)
        wall = comp.wall_nodes()
        out[wall] = comp.grid_velocity[wall]
        for ds in comp.donor_sets:
            out[ds.receptors] = ds.interpolate(velocity)
        # Holes keep their frozen current value.
        return out

    def fill(
        self,
        asmblr: LocalAssembler,
        mdot: np.ndarray,
        mu_eff: np.ndarray,
        component: int,
        velocity: np.ndarray,
        velocity_old: np.ndarray,
        pressure: np.ndarray,
        boundary_flux: np.ndarray,
    ) -> None:
        comp = self.comp
        cfg = self.config
        g_e = diffusion_coefficients(comp, mu_eff)
        vals4 = upwind_advection_coefficients(mdot) + diffusion_pairs(g_e)
        asmblr.add_edge_matrix(vals4)

        tmass = cfg.density * comp.node_volume / cfg.dt
        diag_app = tmass.copy()
        # First-order outflow: advective outflux through open boundary
        # faces (only the outflow plane has free momentum rows).
        diag_app += np.maximum(boundary_flux, 0.0)
        diag_app[self.constraint_rows()] = 1.0
        asmblr.add_diag(self._to_new(diag_app))

        # RHS: BDF1 time term + pressure gradient (edge-computed so that
        # off-rank rows exercise Algorithm 2).
        self.fill_rhs(
            asmblr, component, velocity, velocity_old, pressure
        )

    def fill_rhs(
        self,
        asmblr: LocalAssembler,
        component: int,
        velocity: np.ndarray,
        velocity_old: np.ndarray,
        pressure: np.ndarray,
    ) -> None:
        """RHS only (shared matrix across the three components): the
        physics hook of :meth:`EquationSystem.assemble_rhs`."""
        comp = self.comp
        cfg = self.config
        tmass = cfg.density * comp.node_volume / cfg.dt
        node_rhs = tmass * velocity_old[:, component]
        # Pressure force through open boundary faces (closes the edge-based
        # surface integral of p at free boundary rows).
        ids = comp.boundary_face_nodes
        bforce = np.zeros(comp.n)
        np.add.at(
            bforce,
            ids,
            -pressure[ids] * comp.boundary_face_vectors[:, component],
        )
        node_rhs = node_rhs + bforce
        asmblr.add_node_rhs(self._to_new(node_rhs))

        pbar = edge_average(comp, pressure)
        S_c = comp.edge_area * comp.edge_dir[:, component]
        flux = pbar * S_c
        asmblr.add_edge_rhs(np.stack([-flux, flux], axis=1))

        bc = self.boundary_velocity(velocity)[:, component]
        self.constraint_values_to_rhs(asmblr, bc)


class PressurePoissonSystem(EquationSystem):
    """The continuity projection: ``-div(dt grad p') = -div(mdot*)``.

    The matrix inherits the mesh's pathological anisotropy through the
    ``A_e / d_e`` coefficients; AMG preconditioning is what makes it
    solvable (§1: "poorly conditioned linear systems ... can only be
    solved efficiently with sophisticated algorithms such as AMG").
    """

    name = "pressure"

    def dirichlet_rows(self) -> np.ndarray:
        # Reference pressure at the outflow plane keeps the Poisson system
        # nonsingular; all other boundaries are natural (Neumann).
        return self.comp.background_boundary("xhi")

    def solver_config(self):
        return self.config.pressure_solver

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._hierarchy: AMGHierarchy | None = None

    def make_preconditioner(self, A: ParCSRMatrix):
        if self._hierarchy is not None:
            self._hierarchy.release()
        h = AMGHierarchy(A, self.config.amg)
        self._hierarchy = h  # kept for complexity diagnostics
        return AMGPreconditioner(h)

    def refresh_preconditioner(self, A: ParCSRMatrix) -> None:
        """Numeric-only Galerkin refresh on the frozen hierarchy."""
        self._hierarchy.refresh(A)

    def laplace_coefficients(
        self, tau_edge: np.ndarray | float | None = None
    ) -> np.ndarray:
        """Projection coefficients ``tau_e * A_e / d_e`` per edge.

        ``tau_edge`` defaults to ``dt`` (plain projection); the simulation
        passes the SIMPLE-consistent ``rho V / a_p`` edge average.
        """
        comp = self.comp
        tau = self.config.dt if tau_edge is None else tau_edge
        return tau * comp.edge_area / comp.edge_length

    def fill(
        self,
        asmblr: LocalAssembler,
        mdot: np.ndarray,
        pressure_correction_bc: np.ndarray,
        boundary_flux: np.ndarray | None = None,
        tau_edge: np.ndarray | float | None = None,
    ) -> None:
        comp = self.comp
        g_e = self.laplace_coefficients(tau_edge)
        asmblr.add_edge_matrix(diffusion_pairs(g_e))
        asmblr.add_diag(self.unit_constraint_diag())
        # RHS = -div(mdot*): edge e adds -mdot to its a-row, +mdot to b;
        # boundary faces contribute their outward mass flux directly.
        asmblr.add_edge_rhs(np.stack([-mdot, mdot], axis=1))
        if boundary_flux is not None:
            asmblr.add_node_rhs(self._to_new(-boundary_flux))
        self.constraint_values_to_rhs(asmblr, pressure_correction_bc)


class ScalarTransportSystem(EquationSystem):
    """Turbulence-model-like scalar transport (advection-diffusion)."""

    name = "scalar"

    inflow_value = 1.0e-2
    wall_value = 0.0

    def dirichlet_rows(self) -> np.ndarray:
        comp = self.comp
        sides = [
            comp.background_boundary(s)
            for s in ("xlo", "ylo", "yhi", "zlo", "zhi")
        ]
        return np.unique(np.concatenate(sides + [comp.wall_nodes()]))

    def solver_config(self):
        return self.config.scalar_solver

    def make_preconditioner(self, A: ParCSRMatrix):
        return make_smoother(
            "sgs2",
            A,
            inner_sweeps=self.config.sgs_inner,
            outer_sweeps=self.config.sgs_outer,
        )

    def boundary_scalar(self, scalar: np.ndarray) -> np.ndarray:
        """Scalar field with constraint rows set to their values."""
        comp = self.comp
        out = scalar.copy()
        far = [
            comp.background_boundary(s)
            for s in ("xlo", "ylo", "yhi", "zlo", "zhi")
        ]
        out[np.unique(np.concatenate(far))] = self.inflow_value
        out[comp.wall_nodes()] = self.wall_value
        for ds in comp.donor_sets:
            out[ds.receptors] = ds.interpolate(scalar)
        return out

    def fill(
        self,
        asmblr: LocalAssembler,
        mdot: np.ndarray,
        scalar: np.ndarray,
        scalar_old: np.ndarray,
        production: np.ndarray | None = None,
        boundary_flux: np.ndarray | None = None,
    ) -> None:
        comp = self.comp
        cfg = self.config
        g_e = diffusion_coefficients(comp, cfg.scalar_diffusivity)
        vals4 = upwind_advection_coefficients(mdot) + diffusion_pairs(g_e)
        asmblr.add_edge_matrix(vals4)

        tmass = cfg.density * comp.node_volume / cfg.dt
        diag_app = tmass.copy()
        if boundary_flux is not None:
            diag_app += np.maximum(boundary_flux, 0.0)
        diag_app[self.constraint_rows()] = 1.0
        asmblr.add_diag(self._to_new(diag_app))

        node_rhs = tmass * scalar_old
        if production is not None:
            node_rhs = node_rhs + comp.node_volume * production
        asmblr.add_node_rhs(self._to_new(node_rhs))
        self.constraint_values_to_rhs(asmblr, self.boundary_scalar(scalar))
