"""The Nalu-Wind-style simulation driver.

Each time step (paper §5): rotate the rotor, refresh overset connectivity
and the equation graphs, then run ``picard_iterations`` nonlinear
iterations, each of which assembles and solves the momentum system (three
components on one shared operator, GMRES + SGS2), the pressure-Poisson
projection (GMRES + BoomerAMG), applies the velocity/flux correction, and
advances the turbulence-like scalar (GMRES + SGS2).  A cumulative
phase-aggregate snapshot is taken after every step so the harness can
price per-step NLI times — mean and standard deviation over the steps —
on any machine model, exactly the statistic Figs. 3/8/9/11 plot.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.comm.simcomm import SimWorld
from repro.core.composite import CompositeMesh
from repro.core.config import SimulationConfig
from repro.core.equation_system import PHASES
from repro.core.operators import (
    boundary_mass_flux,
    edge_divergence,
    least_squares_gradient,
    mass_flux,
)
from repro.core.physics import (
    MomentumSystem,
    PressurePoissonSystem,
    ScalarTransportSystem,
)
from repro.linalg.parvector import global_dot
from repro.mesh.turbine import TurbineMeshSystem, make_workload
from repro.obs.telemetry import (
    AMGSetupStats,
    RunTelemetry,
    collect_run_telemetry,
)
from repro.obs.timeline import TimelineProfiler
from repro.obs.tracer import Tracer
from repro.overset.assembler import NodeStatus
from repro.perf.cost import (
    CostModel,
    PhaseAggregate,
    collect_phase_aggregates,
    snapshots_from_json,
    snapshots_to_json,
)
from repro.perf.machines import get_machine
from repro.perf.roofline import roofline_join
from repro.resilience.checkpoint import CheckpointError
from repro.resilience.injection import FaultInjector
from repro.resilience.transaction import StepTransaction

#: The declared state's arrays: every nodal / edge field a step changes
#: (blade coordinates ride along as ``blade<i>/coords``).  The per-step
#: rewind snapshot and the durable checkpoint both read this one tuple.
STATE_FIELDS = (
    "velocity",
    "velocity_old",
    "pressure_field",
    "pressure_correction",
    "scalar_field",
    "scalar_old",
    "mdot",
)

#: Steps from the cold start (uniform inflow, zero pressure and mass flux)
#: whose preconditioners end with the step.  Their pressure operators move
#: too far for a hierarchy set up on one to serve the next: on
#: ``turbine_tiny`` a hierarchy from step 1 costs +15-30 % pressure
#: iterations in steps 2-12 at one Picard iteration, and one from step 2
#: +15 % in step 3 at four; one from step 3 costs nothing in either.  The
#: graphs and plans live on: only the operator's values moved.
START_UP_STEPS = 2


def _norm(x: np.ndarray) -> float:
    """``||x||`` as one block of :func:`global_dot`, so a stored
    diagnostic does not move with the BLAS thread count."""
    return float(np.sqrt(global_dot(x, x, (0, x.size))))


@dataclass
class SimulationReport:
    """Everything the benchmark harness needs from one run."""

    config: SimulationConfig
    workload: str
    total_nodes: int
    n_steps: int
    step_snapshots: list[dict[str, PhaseAggregate]]
    solve_iterations: dict[str, list[int]]
    peak_alloc_bytes: float
    wall_times: dict[str, float]
    divergence_norms: list[float] = field(default_factory=list)
    #: Recovery summary: failures / recoveries-by-action counts and the
    #: raw event list (zero / empty for a clean run) — see
    #: :meth:`repro.resilience.transaction.StepTransaction.summary`.
    recovery: dict[str, Any] = field(default_factory=dict)
    #: Full machine-readable telemetry (attached by ``run()``); its
    #: ``profile`` section is filled when ``config.profile`` is on.
    telemetry: RunTelemetry | None = None

    def step_deltas(self) -> list[dict[str, PhaseAggregate]]:
        """Per-step phase aggregates (differences of the cumulatives)."""
        out = []
        prev: dict[str, PhaseAggregate] = {}
        for snap in self.step_snapshots:
            delta = {}
            for ph, agg in snap.items():
                delta[ph] = agg.minus(prev.get(ph, PhaseAggregate()))
            out.append(delta)
            prev = snap
        return out

    def mean_iterations(self, system: str) -> float:
        """Mean linear iterations per solve of one equation system."""
        its = self.solve_iterations.get(system, [])
        return float(np.mean(its)) if its else 0.0


class NaluWindSimulation:
    """Incompressible-flow solve over an overset turbine mesh system."""

    def __init__(
        self,
        workload: str | TurbineMeshSystem,
        config: SimulationConfig | None = None,
    ) -> None:
        self.config = config or SimulationConfig()
        self.config.validate()
        if isinstance(workload, str):
            self.workload_name = workload
            self.system = make_workload(workload)
        else:
            # The run moves its blades: a mesh object it is handed stays as
            # it was, so one object can start any number of runs.
            self.workload_name = workload.name
            self.system = copy.deepcopy(workload)
        self.world = SimWorld(self.config.nranks, seed=self.config.world_seed)
        # Per-rank timeline profiling: the profiler must attach before
        # CompositeMesh construction so partitioning/graph phases land on
        # the simulated rank clocks too.
        if self.config.profile:
            machine = get_machine(self.config.profile_machine)
            self.world.profiler = TimelineProfiler(
                self.config.nranks,
                pricer=CostModel(machine),
                ops=self.world.ops,
            )
        # The world's tracer is the run's tracer: phase scopes open their
        # spans on it, the step/picard/checkpoint/restart spans join them.
        if self.config.clock is not None:
            self.world.tracer = Tracer(clock=self.config.clock)
        self.tracer = self.world.tracer
        # AMG setup stats arrive through the world's observer hub (the
        # hierarchy is built deep inside the pressure preconditioner).
        # The observer holds the list, not the simulation: no reference
        # cycle through the world keeps a dropped simulation alive.
        setups: list[AMGSetupStats] = []
        self.amg_setups = setups
        self.world.hub.subscribe(
            "amg_setup", lambda stats, **_kw: setups.append(stats)
        )
        # Resilience: scheduled faults corrupt exchanges/operators/solves
        # deterministically; what happens on a failure — rewinds, the
        # checkpoint ring, the run's event record — is the transaction's.
        if self.config.faults:
            self.world.fault_injector = FaultInjector(
                self.config.faults, seed=self.config.fault_seed
            )
        self.world.comm_max_retries = self.config.recovery.comm_max_retries
        self.transaction = StepTransaction(self, self.world, self.config)
        self.recovery_events = self.transaction.events
        self.comp = CompositeMesh(
            self.world, self.system, self.config.partition_method
        )
        self.momentum = MomentumSystem(self.comp, self.config)
        self.pressure = PressurePoissonSystem(self.comp, self.config)
        self.scalar = ScalarTransportSystem(self.comp, self.config)
        self.systems = (self.momentum, self.pressure, self.scalar)
        self.initialize_fields()
        self.step_snapshots: list[dict[str, PhaseAggregate]] = []
        self.divergence_norms: list[float] = []
        self.step_index = 0
        # Solve-iteration history restored from a cold checkpoint: the
        # report prepends it so a resumed run's solve_iterations equal
        # the uninterrupted run's (canonical campaign results stay
        # bitwise-identical across crash/resume boundaries).
        self._restored_solve_iterations: dict[str, list[int]] = {}
        # The first run() after a cold restart (docs/checkpoint_restart.md)
        # interprets n_steps as the *total* step count from t=0, so the
        # restart-vs-uninterrupted comparison uses identical call shapes.
        self._resume_total = bool(self.config.restart_from)
        if self.config.restart_from:
            self.transaction.restart(self.config.restart_from)

    # -- state -------------------------------------------------------------------

    def initialize_fields(self) -> None:
        """Cold start: uniform inflow everywhere (paper §5)."""
        n = self.comp.n
        cfg = self.config
        self.velocity = np.tile(np.asarray(cfg.inflow_velocity), (n, 1))
        self.velocity_old = self.velocity.copy()
        self.pressure_field = np.zeros(n)
        self.pressure_correction = np.zeros(n)
        self.scalar_field = np.full(n, ScalarTransportSystem.inflow_value)
        self.scalar_old = self.scalar_field.copy()
        self.mdot = np.zeros(len(self.comp.edges))
        # Register nodal-field memory with the allocator model.
        self.world.charge_alloc(9.0 * 8.0 * n / self.world.size)

    def _new_to_app(self, data_new: np.ndarray) -> np.ndarray:
        """Reorder a solved (rank-block) vector back to application order."""
        return data_new[self.comp.numbering.old_to_new]

    # -- declared state (the repro.resilience.transaction contract) ---------------

    def state(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        """Everything a step changes: array copies + JSON-able scalars.

        The per-step rewind snapshot, and — with :meth:`environment` merged
        into the second half — the body of a checkpoint file.  Derived
        state (overset connectivity, equation graphs, plans,
        preconditioners) is deliberately *not* here: :meth:`set_state`
        ends its lifetime, and the next step recomputes it
        deterministically.  A checkpoint file also says what of it was
        live (:meth:`derived`), so a restart rebuilds exactly that.
        """
        arrays = {name: getattr(self, name).copy() for name in STATE_FIELDS}
        for i, mesh in enumerate(self.system.blades):
            arrays[f"blade{i}/coords"] = mesh.coords.copy()
        meta: dict[str, Any] = {
            "workload": self.workload_name,
            "nranks": self.config.nranks,
            "step_index": self.step_index,
            "dt": self.config.dt,
            "rotor_angles": [float(r.angle) for r in self.system.rotations],
            "divergence_norms": [float(v) for v in self.divergence_norms],
        }
        return arrays, meta

    def set_state(
        self, arrays: dict[str, np.ndarray], meta: dict[str, Any]
    ) -> None:
        """Rewind to a :meth:`state` pair (a snapshot or a loaded file);
        one from another workload or rank count, or whose arrays are not
        exactly the declared ones, is refused before anything is touched."""
        cfg = self.config
        blades = self.system.blades
        declared = set(STATE_FIELDS).union(
            f"blade{i}/coords" for i in range(len(blades))
        )
        if (
            meta["workload"] != self.workload_name
            or int(meta["nranks"]) != cfg.nranks
            or set(arrays) != declared
        ):
            raise CheckpointError(
                f"state of workload {meta['workload']!r} at nranks="
                f"{meta['nranks']} with arrays {sorted(arrays)} does not "
                f"fit {self.workload_name!r} at nranks={cfg.nranks} "
                f"declaring {sorted(declared)}"
            )
        for name in STATE_FIELDS:
            setattr(self, name, arrays[name].copy())
        # Exact blade coordinates, not a re-rotation: an accumulated single
        # rotation is not bitwise the step-by-step product of rotations.
        for i, (mesh, rot) in enumerate(zip(blades, self.system.rotations)):
            mesh.coords[:] = arrays[f"blade{i}/coords"]
            rot.angle = float(meta["rotor_angles"][i])
            mesh.update_metrics()
        self.comp.update_connectivity()
        self.drop_graphs()
        # Steps rewound in this process take their cumulative snapshots
        # and divergence norms with them: entry i belongs to step i.
        rewound = self.step_index - int(meta["step_index"])
        if rewound > 0:
            del self.step_snapshots[-rewound:]
        self.step_index -= rewound
        cfg.dt = float(meta["dt"])
        self.divergence_norms = [float(v) for v in meta["divergence_norms"]]

    def environment(self) -> dict[str, Any]:
        """What the run accumulated around its state; a checkpoint file
        carries it and only a cold restart applies it."""
        injector = self.world.fault_injector
        return {
            "rng_state": self.world.rng.bit_generator.state,
            "injector": injector.state_dict() if injector else None,
            "metrics": self.world.metrics.state_dict(),
            "solve_iterations": self.solve_iterations(),
            "ops": self.world.ops.state_dict(),
            "traffic": self.world.traffic.state_dict(),
            "step_snapshots": snapshots_to_json(self.step_snapshots),
            "held_storage": {e.name: e.held_storage() for e in self.systems},
        }

    def set_environment(self, env: dict[str, Any]) -> None:
        """Make this process indistinguishable from the one that wrote
        ``env`` (cold restart)."""
        self.world.rng.bit_generator.state = env["rng_state"]
        if self.world.fault_injector is not None and env.get("injector"):
            self.world.fault_injector.load_state(env["injector"])
        self.world.metrics.load_state(env["metrics"])
        self._restored_solve_iterations = {
            name: [int(i) for i in its]
            for name, its in (env.get("solve_iterations") or {}).items()
        }
        if "ops" in env:  # absent from checkpoints of older versions
            # A resumed job stores the uninterrupted run's modeled ledger.
            self.world.ops.load_state(env["ops"])
            self.world.traffic.load_state(env["traffic"])
            self.step_snapshots = snapshots_from_json(env["step_snapshots"])
            for eq in self.systems:
                eq.hold_storage(env["held_storage"][eq.name])

    def solve_iterations(self) -> dict[str, list[int]]:
        """Linear iterations of every solve since t=0, per equation (the
        history a cold restart preloaded + this process's records)."""
        return {
            eq.name: self._restored_solve_iterations.get(eq.name, [])
            + [r.iterations for r in eq.solve_records]
            for eq in self.systems
        }

    def derived(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        """Each equation's live derived state (:meth:`EquationSystem.derived`)
        as one ``(arrays, meta)`` pair: arrays keyed ``<equation>/<name>``,
        meta keyed by equation."""
        arrays: dict[str, np.ndarray] = {}
        meta: dict[str, Any] = {}
        for eq in self.systems:
            eq_arrays, meta[eq.name] = eq.derived()
            for name, arr in eq_arrays.items():
                arrays[f"{eq.name}/{name}"] = arr
        return arrays, meta

    def set_derived(
        self, arrays: dict[str, np.ndarray], meta: dict[str, Any]
    ) -> None:
        """After :meth:`set_state` from a checkpoint: rebuild the derived
        state a :meth:`derived` pair reports live, off the ledger, so the
        next step replays and refreshes where the writer's did and charges
        the same.  The allocator model is charged only the difference
        between the storage held before and after (none on a cold restart,
        whose held storage stood in for the writer's objects)."""
        before = self._held_per_rank()
        with self.world.off_ledger():
            for eq in self.systems:
                prefix = f"{eq.name}/"
                eq.rebuild_derived(
                    {
                        name[len(prefix):]: arr
                        for name, arr in arrays.items()
                        if name.startswith(prefix)
                    },
                    meta[eq.name],
                )
        delta = self._held_per_rank() - before
        if np.any(delta):
            self.world.charge_alloc(delta.tolist())

    def _held_per_rank(self) -> np.ndarray:
        """Per-rank device bytes held by every equation's derived objects."""
        held = np.zeros(self.world.size)
        for eq in self.systems:
            for per_rank in eq.held_storage().values():
                held += per_rank
        return held

    def write_checkpoint(self) -> str:
        """Durably checkpoint the current state; returns the file path.

        The write ends no lifetime: the file says which graphs, plans and
        hierarchy are live (:meth:`derived`) and a restart rebuilds them,
        so ``checkpoint_every`` changes nothing a run computes.
        """
        return self.transaction.write_checkpoint()

    def drop_graphs(self) -> None:
        """End the lifetime of every equation's graph, plan and
        preconditioner (:meth:`EquationSystem.drop_graph`)."""
        for eq in self.systems:
            eq.drop_graph()

    def effective_viscosity(self) -> np.ndarray:
        """Molecular + turbulence-scalar eddy viscosity."""
        cfg = self.config
        return cfg.viscosity + cfg.density * np.maximum(
            self.scalar_field, 0.0
        )

    # -- nonlinear iteration ---------------------------------------------------------

    def picard_iteration(self) -> None:
        cfg = self.config
        comp = self.comp

        # Momentum: one operator, three RHS/solves.  The projection
        # timescale tau = rho V / a_p (SIMPLE-consistent) is evaluated from
        # the same advection/diffusion state the operator is built from.
        mu_eff = self.effective_viscosity()
        bflux = boundary_mass_flux(comp, self.velocity, cfg.density)
        mdot_plain = mass_flux(comp, self.velocity, cfg.density)
        tau_node = self.momentum.projection_tau(mdot_plain, mu_eff, bflux)
        a, b = comp.edges[:, 0], comp.edges[:, 1]
        tau_edge = 0.5 * (tau_node[a] + tau_node[b])
        # The Rhie-Chow term of both fluxes below reads one pressure field.
        grad_p_old = least_squares_gradient(comp, self.pressure_field)
        mdot = mass_flux(
            comp,
            self.velocity,
            cfg.density,
            pressure=self.pressure_field,
            tau=tau_edge,
            pressure_gradient=grad_p_old,
        )
        A_m, rhs_u = self.momentum.assemble(
            mdot=mdot,
            mu_eff=mu_eff,
            component=0,
            velocity=self.velocity,
            velocity_old=self.velocity_old,
            pressure=self.pressure_field,
            boundary_flux=bflux,
        )
        u_star = self.velocity.copy()
        res = self.momentum.solve(A_m, rhs_u)
        u_star[:, 0] = self._new_to_app(res.x.data)
        for c in (1, 2):
            rhs_c = self.momentum.assemble_rhs(
                component=c,
                velocity=self.velocity,
                velocity_old=self.velocity_old,
                pressure=self.pressure_field,
            )
            res = self.momentum.solve(A_m, rhs_c)
            u_star[:, c] = self._new_to_app(res.x.data)
        # SIMPLE-style velocity under-relaxation on free rows: damps the
        # nonlinear u <-> p Picard loop at large advective CFL.
        alpha_u = cfg.velocity_relax
        if alpha_u < 1.0:
            free_m = np.ones(comp.n, dtype=bool)
            free_m[self.momentum.constraint_rows()] = False
            u_star[free_m] = (
                alpha_u * u_star[free_m]
                + (1.0 - alpha_u) * self.velocity[free_m]
            )

        # Pressure projection.
        mdot_star = mass_flux(
            comp,
            u_star,
            cfg.density,
            pressure=self.pressure_field,
            tau=tau_edge,
            pressure_gradient=grad_p_old,
        )
        # Overset constraint for the correction: enforce continuity of the
        # *total* pressure across mesh boundaries, p_rec + p'_rec =
        # interp(p_donor); as the Picard iteration converges the receptor
        # corrections go to zero together with the field mismatch.
        pc_bc = np.zeros(comp.n)
        for ds in comp.donor_sets:
            pc_bc[ds.receptors] = (
                ds.interpolate(self.pressure_field)
                - self.pressure_field[ds.receptors]
            )
        bflux_star = boundary_mass_flux(comp, u_star, cfg.density)
        A_p, rhs_p = self.pressure.assemble(
            mdot=mdot_star,
            pressure_correction_bc=pc_bc,
            boundary_flux=bflux_star,
            tau_edge=tau_edge,
        )
        res_p = self.pressure.solve(A_p, rhs_p)
        p_prime = self._new_to_app(res_p.x.data)
        self.pressure_correction = p_prime
        # Under-relaxed pressure accumulation; the velocity/flux correction
        # below still uses the full p' so the corrected mass flux satisfies
        # the discrete continuity this projection just solved.
        self.pressure_field = (
            self.pressure_field + cfg.pressure_relax * p_prime
        )

        # Velocity / flux correction on free momentum rows, scaled by the
        # same tau the projection operator used.
        grad_p = least_squares_gradient(comp, p_prime)
        free = np.ones(comp.n, dtype=bool)
        free[self.momentum.constraint_rows()] = False
        self.velocity = u_star.copy()
        self.velocity[free] -= (
            (tau_node[free] / cfg.density)[:, None] * grad_p[free]
        )

        # Corrected mass flux drives the scalar advection.
        g_e = self.pressure.laplace_coefficients(tau_edge)
        self.mdot = mdot_star - g_e * (p_prime[b] - p_prime[a])

        # Scalar transport.
        A_s, rhs_s = self.scalar.assemble(
            mdot=self.mdot,
            scalar=self.scalar_field,
            scalar_old=self.scalar_old,
            boundary_flux=boundary_mass_flux(
                comp, self.velocity, cfg.density
            ),
        )
        res_s = self.scalar.solve(A_s, rhs_s)
        self.scalar_field = self._new_to_app(res_s.x.data)

    # -- time stepping ----------------------------------------------------------------

    def step(self) -> bool:
        """One time step: motion, connectivity, graphs, Picard loop.

        Runs :meth:`_step_body` as one ``StepTransaction``: a
        ``SolverFailure`` that escapes the solver ladder rewinds and
        re-steps there.  False when it rewound to a durable checkpoint
        instead of completing the step (``step_index`` moved back).  Each
        of the first :data:`START_UP_STEPS` completed steps ends the
        lifetime of the preconditioners it set up.
        """
        if not self.transaction.run(self._step_body):
            return False
        self.step_index += 1
        if self.step_index <= START_UP_STEPS:
            for eq in self.systems:
                eq.drop_preconditioner()
        self.step_snapshots.append(collect_phase_aggregates(self.world))
        # Progress heartbeat for external supervisors (campaign workers
        # beat their job lease on it; see docs/campaign.md).
        self.world.hub.emit("step_complete", step=self.step_index)
        return True

    def _step_body(self) -> dict[str, np.ndarray]:
        """Advance the fields by ``config.dt``; returns those to guard."""
        cfg = self.config
        with self.world.marked_span("step", index=self.step_index):
            with self.world.phase_scope("motion"):
                self.system.advance_rotor(cfg.dt)
                self.comp.update_connectivity()
            for eq in self.systems:
                eq.update_graph()
            for k in range(cfg.picard_iterations):
                with self.world.marked_span("picard", index=k):
                    self.picard_iteration()
            # Mass-conservation diagnostic on free pressure rows (interior
            # edge fluxes plus open boundary faces).
            div = edge_divergence(self.comp, self.mdot)
            div += boundary_mass_flux(self.comp, self.velocity, cfg.density)
            free = np.ones(self.comp.n, dtype=bool)
            free[self.pressure.constraint_rows()] = False
            self.divergence_norms.append(
                _norm(div[free]) / max(_norm(self.mdot), 1e-300)
            )
            self.velocity_old = self.velocity.copy()
            self.scalar_old = self.scalar_field.copy()
        return {
            "velocity": self.velocity,
            "pressure": self.pressure_field,
            "scalar": self.scalar_field,
        }

    def run(self, n_steps: int) -> SimulationReport:
        """Advance ``n_steps`` and return the run report.

        With ``config.checkpoint_every > 0`` a durable checkpoint is
        written after every Nth completed step (and is what the step
        transaction's last rung rewinds to).

        On the first ``run()`` after a cold restart (``restart_from``),
        ``n_steps`` is the *total* step count from t=0 — the run advances
        only the remaining steps, so restarted and uninterrupted runs are
        invoked identically.  Subsequent calls advance ``n_steps`` more,
        as always.
        """
        cfg = self.config
        if self._resume_total:
            self._resume_total = False
            advance = max(0, int(n_steps) - self.step_index)
        else:
            advance = int(n_steps)
        target = self.step_index + advance
        while self.step_index < target:
            if (
                self.step()
                and cfg.checkpoint_every
                and self.step_index % cfg.checkpoint_every == 0
            ):
                self.write_checkpoint()
        report = SimulationReport(
            config=self.config,
            workload=self.workload_name,
            total_nodes=self.comp.n,
            n_steps=advance,
            step_snapshots=list(self.step_snapshots),
            solve_iterations=self.solve_iterations(),
            peak_alloc_bytes=self.world.ops.peak_alloc(),
            wall_times={
                label: wall["total_s"]
                for label, wall in self.world.phase_wall.items()
            },
            divergence_norms=list(self.divergence_norms),
            recovery=self.transaction.summary(),
        )
        report.telemetry = collect_run_telemetry(self, report)
        return report

    def roofline(self) -> dict[str, Any]:
        """Roofline join of the run's kernel tallies with its timeline,
        finalized here (needs ``config.profile``)."""
        prof = self.world.profiler.finalize()
        return roofline_join(self.world.ops, prof, prof.pricer)
