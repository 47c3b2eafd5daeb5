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
from repro.core.equation_system import EquationSystem, HeldStorage
from repro.core.operators import (
    boundary_pressure_force,
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
        return np.union1d(self.comp.far_field_nodes, self.comp.wall_nodes())

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
        tmass = cfg.density * comp.node_volume / cfg.dt
        # One scatter from 0.0 whose first term per node is its time
        # mass: 0.0 + m is exactly m, so the sums are those of adding the
        # edge terms onto ``tmass`` in order.
        n = comp.n
        diag = np.bincount(
            np.concatenate((np.arange(n), comp.edges.T.ravel())),
            weights=np.concatenate(
                (
                    tmass,
                    np.maximum(mdot, 0.0) + g_e,
                    np.maximum(-mdot, 0.0) + g_e,
                )
            ),
            minlength=n,
        )
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
        out[comp.far_field_nodes] = np.asarray(cfg.inflow_velocity)
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
        node_rhs = node_rhs + boundary_pressure_force(
            comp, pressure, component
        )
        asmblr.add_node_rhs(self._to_new(node_rhs))

        pbar = edge_average(comp, pressure)
        flux = pbar * comp.store.face_vectors[:, component]
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
    HOLDERS = EquationSystem.HOLDERS + ("_hierarchy",)

    def dirichlet_rows(self) -> np.ndarray:
        # Reference pressure at the outflow plane keeps the Poisson system
        # nonsingular; all other boundaries are natural (Neumann).
        return self.comp.background_boundary("xhi")

    def solver_config(self):
        return self.config.pressure_solver

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: The live hierarchy, or a :class:`HeldStorage` of the bytes of
        #: the one :meth:`drop_preconditioner` ended.
        self._hierarchy: AMGHierarchy | HeldStorage | None = None
        #: The fine-operator values the hierarchy was set up from (plan
        #: replay later overwrites the operator in place).
        self._setup_values: np.ndarray | None = None

    def drop_preconditioner(self) -> None:
        """Also ends the hierarchy: its levels, smoothers and, through
        level 0, the operator it was set up on are freed on the host now;
        its modeled storage at the next set-up, as before."""
        super().drop_preconditioner()
        if self._hierarchy is not None:
            self._hierarchy = HeldStorage(self.world, self._hierarchy.held())
        self._setup_values = None

    def make_preconditioner(self, A: ParCSRMatrix):
        if self._hierarchy is not None:
            self._hierarchy.release()
        self._setup_values = A.A.data.copy()
        h = AMGHierarchy(A, self.config.amg)
        self._hierarchy = h  # refreshed in place until drop_preconditioner
        return AMGPreconditioner(h)

    def derived(self) -> tuple[dict[str, np.ndarray], dict]:
        """Adds a live hierarchy's set-up values and served count: its
        ``P``, ``R`` and coarse patterns depend only on that operator and
        the seeded coarsening, and every refresh overwrites every level's
        values."""
        arrays, meta = super().derived()
        if (
            meta["graph"]
            and self._precond is not None
            and self._precond_pattern == self.graph.revision
        ):
            arrays["setup_values"] = self._setup_values
            meta["served"] = self._served
        return arrays, meta

    def rebuild_derived(
        self, arrays: dict[str, np.ndarray], meta: dict
    ) -> None:
        """Also sets the hierarchy up again from its set-up values, current
        for the rebuilt graph and stale for the values, so the next solve
        refreshes it where the writer's next solve did."""
        super().rebuild_derived(arrays, meta)
        if "served" not in meta:
            return
        plan = self._captured_plan()
        pattern = plan.matrix if plan else self._assemble_zeros(None)
        A = pattern.A.copy()
        A.data[:] = arrays["setup_values"]
        self._precond = self.make_preconditioner(
            ParCSRMatrix(self.world, A, pattern.row_offsets, name=self.name)
        )
        self._precond_pattern = self.graph.revision
        self._precond_values = self._values_stamp
        self._served = int(meta["served"])

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
        return np.union1d(self.comp.far_field_nodes, self.comp.wall_nodes())

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
        out[comp.far_field_nodes] = self.inflow_value
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
