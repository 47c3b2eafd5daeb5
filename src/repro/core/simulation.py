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

import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.comm.simcomm import SimWorld
from repro.core.composite import CompositeMesh
from repro.core.config import SimulationConfig
from repro.core.equation_system import PHASES
from repro.core.operators import (
    boundary_mass_flux,
    least_squares_gradient,
    mass_flux,
)
from repro.core.physics import (
    MomentumSystem,
    PressurePoissonSystem,
    ScalarTransportSystem,
)
from repro.mesh.turbine import TurbineMeshSystem, make_workload
from repro.obs.telemetry import (
    AMGSetupStats,
    RunTelemetry,
    collect_run_telemetry,
)
from repro.obs.profile import RunProfile, collect_run_profile
from repro.obs.timeline import TimelineProfiler
from repro.obs.tracer import Tracer
from repro.overset.assembler import NodeStatus
from repro.perf.cost import CostModel, PhaseAggregate, collect_phase_aggregates
from repro.perf.machines import get_machine
from repro.perf.roofline import roofline_join
from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointManager,
)
from repro.resilience.guards import SolverFailure, validate_fields
from repro.resilience.injection import FaultInjector
from repro.resilience.policy import (
    RecoveryEvent,
    record_failure,
    record_recovery,
    summarize_events,
)


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
    #: :func:`repro.resilience.policy.summarize_events`.
    recovery: dict[str, Any] = field(default_factory=dict)
    #: Full machine-readable telemetry (attached by ``run()``).
    telemetry: RunTelemetry | None = None
    #: Per-rank profile document (attached by ``run()`` when
    #: ``config.profile`` is on; None otherwise).
    profile: RunProfile | None = None

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
            self.workload_name = workload.name
            self.system = workload
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
        self.amg_setups: list[AMGSetupStats] = []
        self.world.hub.subscribe(
            "amg_setup",
            lambda stats, **_kw: self.amg_setups.append(stats),
        )
        # Resilience: scheduled faults corrupt exchanges/operators/solves
        # deterministically; failure and recovery events are aggregated
        # here for the report's recovery summary.
        if self.config.faults:
            self.world.fault_injector = FaultInjector(
                self.config.faults, seed=self.config.fault_seed
            )
        self.world.comm_max_retries = self.config.recovery.comm_max_retries
        self.recovery_events: list[dict[str, Any]] = []
        self.world.hub.subscribe("solver_failure", self._on_solver_failure)
        self.world.hub.subscribe("recovery", self._on_recovery)
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
        # Durable checkpoint/restart (docs/checkpoint_restart.md).
        self.step_index = 0
        self._resume_total = False
        self._checkpoint_restores = 0
        self._ckpt_manager: CheckpointManager | None = None
        # Solve-iteration history restored from a cold checkpoint: the
        # report prepends it so a resumed run's solve_iterations equal
        # the uninterrupted run's (canonical campaign results stay
        # bitwise-identical across crash/resume boundaries).
        self._restored_solve_iterations: dict[str, list[int]] = {}
        if self.config.restart_from:
            self._load_restart(self.config.restart_from)
            # The first run() after a cold restart interprets n_steps as
            # the *total* step count from t=0, so the restart-vs-
            # uninterrupted comparison uses identical call shapes.
            self._resume_total = True

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
        # Register nodal-field memory with the allocator model.
        self.world.charge_alloc(9.0 * 8.0 * n / self.world.size)

    def _new_to_app(self, data_new: np.ndarray) -> np.ndarray:
        """Reorder a solved (rank-block) vector back to application order."""
        return data_new[self.comp.numbering.old_to_new]

    # -- resilience --------------------------------------------------------------

    def _on_solver_failure(self, failure: Any = None, **kw: Any) -> None:
        """Hub observer: fold a solver_failure event into the run record."""
        entry: dict[str, Any] = {"event": "solver_failure"}
        if failure is not None:
            entry.update(failure.to_dict())
        else:
            entry.update(kw)
        self.recovery_events.append(entry)

    def _on_recovery(self, **kw: Any) -> None:
        """Hub observer: fold a recovery event into the run record."""
        entry: dict[str, Any] = {"event": "recovery"}
        entry.update(kw)
        self.recovery_events.append(entry)

    def _checkpoint_fields(self) -> dict[str, np.ndarray]:
        """Copy the full field state for a possible rollback."""
        state = {
            "velocity": self.velocity.copy(),
            "velocity_old": self.velocity_old.copy(),
            "pressure_field": self.pressure_field.copy(),
            "pressure_correction": self.pressure_correction.copy(),
            "scalar_field": self.scalar_field.copy(),
            "scalar_old": self.scalar_old.copy(),
        }
        if hasattr(self, "mdot"):
            state["mdot"] = self.mdot.copy()
        return state

    def _restore_fields(self, checkpoint: dict[str, np.ndarray]) -> None:
        """Restore field state from a checkpoint (copies, reusable)."""
        for name, arr in checkpoint.items():
            setattr(self, name, arr.copy())

    def _rollback(self, checkpoint: dict[str, np.ndarray],
                  failure: SolverFailure, attempt: int) -> None:
        """Undo a failed step: rewind motion, restore fields, back off dt.

        The failed step's rotor advance is reversed (``advance_rotor`` with
        negative dt), every solver cache derived from the corrupted state
        is dropped, and the timestep is scaled by ``dt_backoff`` for the
        re-step; connectivity and graphs are rebuilt by the re-run of
        :meth:`_step_body` itself.
        """
        cfg = self.config
        policy = cfg.recovery
        self.system.advance_rotor(-cfg.dt)
        self._restore_fields(checkpoint)
        for eq in self.systems:
            eq.reset_solver_caches()
        new_dt = cfg.dt * policy.dt_backoff
        detail = f"dt {cfg.dt:.4g} -> {new_dt:.4g}"
        cfg.dt = new_dt
        event = RecoveryEvent(
            equation=failure.equation,
            kind=failure.kind,
            action="rollback_restep",
            attempt=attempt,
            success=True,
            detail=detail,
        )
        record_recovery(self.world, event)

    def _guard_fields(self) -> None:
        """NaN/Inf check of the solution fields at end of step."""
        if not self.config.recovery.guards:
            return
        try:
            validate_fields(
                {
                    "velocity": self.velocity,
                    "pressure": self.pressure_field,
                    "scalar": self.scalar_field,
                },
                phase="step",
            )
        except SolverFailure as failure:
            record_failure(self.world, failure)
            raise

    def _recovery_summary(self) -> dict[str, Any]:
        """Fold the run's failure/recovery events into a report summary.

        When durable checkpointing was active, a ``checkpoint`` section
        (writes/restores/retry counts) rides along.
        """
        summary = summarize_events(self.recovery_events)
        m = self.world.metrics
        writes = m.counter_total("resilience.checkpoint.writes")
        restores = m.counter_total("resilience.checkpoint.restores")
        if writes or restores:
            summary["checkpoint"] = {
                "writes": int(writes),
                "restores": int(restores),
                "write_retries": int(
                    m.counter_total("resilience.checkpoint.write_retries")
                ),
                "corrupt_detected": int(
                    m.counter_total("resilience.checkpoint.corrupt_detected")
                ),
            }
        return summary

    # -- durable checkpoint/restart ----------------------------------------------

    def _checkpoint_manager(self) -> CheckpointManager:
        """The retention-ring manager over ``config.checkpoint_dir``."""
        if self._ckpt_manager is None:
            self._ckpt_manager = CheckpointManager(
                self.config.checkpoint_dir,
                keep=self.config.checkpoint_keep,
                injector=self.world.fault_injector,
                metrics=self.world.metrics,
            )
        return self._ckpt_manager

    def _capture_durable_state(
        self,
    ) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        """Full restart state: fields, mesh motion, RNG, telemetry.

        Everything needed for a bitwise-exact resume is captured; derived
        state (overset connectivity, equation graphs, preconditioners) is
        deliberately *not* — the next step recomputes it deterministically
        from the restored inputs, exactly as the uninterrupted run would.
        Timing/traffic aggregates are environment, not simulation state,
        and restart from zero.
        """
        cfg = self.config
        arrays = self._checkpoint_fields()
        for i, mesh in enumerate(self.system.blades):
            arrays[f"blade{i}/coords"] = mesh.coords.copy()
        injector = self.world.fault_injector
        meta: dict[str, Any] = {
            "workload": self.workload_name,
            "nranks": cfg.nranks,
            "step_index": self.step_index,
            "dt": cfg.dt,
            "rotor_angles": [float(r.angle) for r in self.system.rotations],
            "divergence_norms": [float(v) for v in self.divergence_norms],
            "rng_state": self.world.rng.bit_generator.state,
            "injector": injector.state_dict() if injector else None,
            "metrics": self.world.metrics.state_dict(),
            # Cumulative per-equation iteration history (restored prefix
            # + this process's records): a cold restore preloads it so
            # the resumed run reports the same solve_iterations as the
            # uninterrupted one.
            "solve_iterations": {
                eq.name: self._restored_solve_iterations.get(eq.name, [])
                + [r.iterations for r in eq.solve_records]
                for eq in self.systems
            },
        }
        return arrays, meta

    def _restore_durable_state(
        self,
        arrays: dict[str, np.ndarray],
        meta: dict[str, Any],
        *,
        cold: bool,
    ) -> None:
        """Apply a checkpoint to this simulation.

        ``cold=True`` (process restart) additionally restores the RNG
        streams, fault-injector schedule, and telemetry counters, making
        the resumed run indistinguishable from the uninterrupted one.
        ``cold=False`` (in-run recovery restore) rewinds only the physics
        and motion state: the environment — counters, fired faults, RNG
        consumption — does not rewind with it, which is also what keeps a
        deterministic injected fault from replaying forever.
        """
        cfg = self.config
        if meta["workload"] != self.workload_name:
            raise CheckpointError(
                f"checkpoint is for workload {meta['workload']!r}, "
                f"this simulation runs {self.workload_name!r}"
            )
        if int(meta["nranks"]) != cfg.nranks:
            raise CheckpointError(
                f"checkpoint was taken with nranks={meta['nranks']}, "
                f"this simulation has nranks={cfg.nranks}"
            )
        self._restore_fields(
            {k: v for k, v in arrays.items() if "/" not in k}
        )
        # Blade meshes restore to their exact checkpointed coordinates
        # (not a re-rotation: an accumulated single rotation is not
        # bitwise-identical to the step-by-step product of rotations).
        for i, (mesh, rot) in enumerate(
            zip(self.system.blades, self.system.rotations)
        ):
            mesh.coords[:] = arrays[f"blade{i}/coords"]
            rot.angle = float(meta["rotor_angles"][i])
            mesh.update_metrics()
        self.comp.update_connectivity()
        for eq in self.systems:
            eq.reset_solver_caches()
        self.step_index = int(meta["step_index"])
        cfg.dt = float(meta["dt"])
        if cold:
            self.divergence_norms = [
                float(v) for v in meta["divergence_norms"]
            ]
            self.world.rng.bit_generator.state = meta["rng_state"]
            if self.world.fault_injector is not None and meta.get("injector"):
                self.world.fault_injector.load_state(meta["injector"])
            self.world.metrics.load_state(meta["metrics"])
            self._restored_solve_iterations = {
                name: [int(i) for i in its]
                for name, its in (meta.get("solve_iterations") or {}).items()
            }

    def write_checkpoint(self) -> str:
        """Durably checkpoint the current state; returns the file path."""
        mgr = self._checkpoint_manager()
        with self.tracer.span("checkpoint", step=self.step_index):
            # Count the write *before* capturing telemetry state: the
            # restored counter then equals the uninterrupted run's value
            # at the same step (counter parity is part of the bitwise-
            # resume guarantee).
            self.world.metrics.counter("resilience.checkpoint.writes").inc()
            arrays, meta = self._capture_durable_state()
            path = mgr.save(self.step_index, arrays, meta)
        self.world.hub.emit("checkpoint", step=self.step_index, path=path)
        return path

    def _load_restart(self, source: str) -> None:
        """Cold-start restore from a checkpoint file or directory."""
        with self.tracer.span("restart", source=source):
            if os.path.isdir(source):
                mgr = CheckpointManager(
                    source,
                    keep=self.config.checkpoint_keep,
                    injector=self.world.fault_injector,
                    metrics=self.world.metrics,
                )
                arrays, meta, path = mgr.load_latest_good()
            else:
                arrays, meta = self._checkpoint_manager().load(source)
                path = source
            self._restore_durable_state(arrays, meta, cold=True)
        # After load_state replaced the registry: this increment is new
        # activity of the restarted process, not checkpointed state.
        self.world.metrics.counter(
            "resilience.checkpoint.restores", source="cold"
        ).inc()
        self.world.hub.emit(
            "restart", step=self.step_index, path=path, source="cold"
        )

    def _try_checkpoint_restore(self, failure: SolverFailure) -> bool:
        """Last recovery rung: restore the newest good durable checkpoint.

        Runs when a failure has already exhausted the solver ladder and
        the in-memory rollback budget.  Bounded by
        ``recovery.max_checkpoint_restores`` per run; returns False when
        disabled, exhausted, or no loadable checkpoint exists (the
        failure then surfaces to the caller).
        """
        policy = self.config.recovery
        if not (policy.enabled and policy.rollback):
            return False
        if self._checkpoint_restores >= policy.max_checkpoint_restores:
            return False
        if not self.config.checkpoint_every:
            return False
        try:
            arrays, meta, path = self._checkpoint_manager().load_latest_good()
        except CheckpointError:
            return False
        self._checkpoint_restores += 1
        rewound_from = self.step_index
        self._restore_durable_state(arrays, meta, cold=False)
        self.world.metrics.counter(
            "resilience.checkpoint.restores", source="recovery"
        ).inc()
        event = RecoveryEvent(
            equation=failure.equation,
            kind=failure.kind,
            action="checkpoint_restore",
            attempt=self._checkpoint_restores,
            success=True,
            detail=(
                f"step {rewound_from} -> {self.step_index} "
                f"({os.path.basename(path)})"
            ),
        )
        record_recovery(self.world, event)
        self.world.hub.emit(
            "restart", step=self.step_index, path=path, source="recovery"
        )
        return True

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
        mdot = mass_flux(
            comp,
            self.velocity,
            cfg.density,
            pressure=self.pressure_field if cfg.rhie_chow else None,
            tau=tau_edge if cfg.rhie_chow else 0.0,
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
            pressure=self.pressure_field if cfg.rhie_chow else None,
            tau=tau_edge if cfg.rhie_chow else 0.0,
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

    def step(self) -> None:
        """One time step: motion, connectivity, graphs, Picard loop.

        With rollback enabled, a :class:`SolverFailure` that escapes the
        solver-level recovery ladder rolls the step back (rewind motion,
        restore checkpointed fields, drop solver caches) and re-steps
        with ``dt * dt_backoff``, up to ``max_step_retries`` times; the
        backed-off dt applies to the retried step only.  An exhausted
        retry budget re-raises the failure.
        """
        policy = self.config.recovery
        checkpoint = None
        if policy.enabled and policy.rollback:
            checkpoint = self._checkpoint_fields()
        dt0 = self.config.dt
        retries = 0
        try:
            while True:
                try:
                    with self.world.marked_span("step", index=self.step_index):
                        self._step_body()
                    break
                except SolverFailure as failure:
                    if (
                        checkpoint is None
                        or retries >= policy.max_step_retries
                    ):
                        raise
                    retries += 1
                    self._rollback(checkpoint, failure, retries)
        finally:
            self.config.dt = dt0
        self.step_index += 1
        self.step_snapshots.append(collect_phase_aggregates(self.world))
        # Progress heartbeat for external supervisors (campaign workers
        # beat their job lease on it; see docs/campaign.md).
        self.world.hub.emit("step_complete", step=self.step_index)

    def _step_body(self) -> None:
        cfg = self.config
        with self.world.phase_scope("motion"):
            self.system.advance_rotor(cfg.dt)
            self.comp.update_connectivity()
        for eq in self.systems:
            eq.update_graph()
        for k in range(cfg.picard_iterations):
            with self.world.marked_span("picard", index=k):
                self.picard_iteration()
        self._guard_fields()
        # Mass-conservation diagnostic on free pressure rows (interior
        # edge fluxes plus open boundary faces).
        div = np.zeros(self.comp.n)
        a, b = self.comp.edges[:, 0], self.comp.edges[:, 1]
        np.add.at(div, a, self.mdot)
        np.add.at(div, b, -self.mdot)
        div += boundary_mass_flux(
            self.comp, self.velocity, self.config.density
        )
        free = np.ones(self.comp.n, dtype=bool)
        free[self.pressure.constraint_rows()] = False
        self.divergence_norms.append(
            float(np.linalg.norm(div[free]))
            / max(float(np.linalg.norm(self.mdot)), 1e-300)
        )
        self.velocity_old = self.velocity.copy()
        self.scalar_old = self.scalar_field.copy()

    def run(self, n_steps: int) -> SimulationReport:
        """Advance ``n_steps`` and return the run report.

        With ``config.checkpoint_every > 0`` a durable checkpoint is
        written after every Nth completed step, and a
        :class:`SolverFailure` that exhausts the in-memory rollback
        budget is retried once more from the newest good checkpoint
        (bounded by ``recovery.max_checkpoint_restores``).

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
            try:
                self.step()
            except SolverFailure as failure:
                if not self._try_checkpoint_restore(failure):
                    raise
                continue
            if (
                cfg.checkpoint_every
                and self.step_index % cfg.checkpoint_every == 0
            ):
                self.write_checkpoint()
        report = SimulationReport(
            config=self.config,
            workload=self.workload_name,
            total_nodes=self.comp.n,
            n_steps=advance,
            step_snapshots=list(self.step_snapshots),
            solve_iterations={
                eq.name: self._restored_solve_iterations.get(eq.name, [])
                + [r.iterations for r in eq.solve_records]
                for eq in self.systems
            },
            peak_alloc_bytes=self.world.ops.peak_alloc(),
            wall_times={
                label: wall["total_s"]
                for label, wall in self.world.phase_wall.items()
            },
            divergence_norms=list(self.divergence_norms),
            recovery=self._recovery_summary(),
        )
        # Profile before telemetry: publish_metrics runs here, so the
        # telemetry metrics snapshot carries the profile.* gauges.
        if self.world.profiler is not None:
            report.profile = self._collect_profile()
        report.telemetry = collect_run_telemetry(self, report)
        return report

    def _collect_profile(self) -> RunProfile:
        """Finalize the timeline, join the roofline, publish gauges."""
        prof = self.world.profiler
        prof.finalize()
        join = roofline_join(self.world.ops, prof, prof.pricer)
        profile = collect_run_profile(self, roofline=join)
        profile.publish_metrics(self.world.metrics)
        self.world.hub.emit("profile", profile=profile)
        return profile
