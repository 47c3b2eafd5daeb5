"""Simulation configuration.

One dataclass gathers every knob the benchmark harness sweeps: physics
parameters, solver settings, the paper's optimization toggles (assembly
variant, inner GS sweeps, partitioner), and run control.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.amg.hierarchy import AMGOptions
from repro.resilience.injection import FaultSpec
from repro.resilience.policy import RecoveryPolicy
from repro.serialize import (
    as_bool,
    as_float,
    as_float_triple,
    as_int,
    as_str,
    nested,
    nested_list,
    stable_digest,
    strict_kwargs,
)


@dataclass
class SolverConfig:
    """Linear-solver settings for one equation system."""

    # Krylov method: "gmres" | "cg" | "pipelined_cg" (dispatched through
    # repro.krylov.make_krylov_solver).
    method: str = "gmres"
    tol: float = 1e-5
    max_iters: int = 200
    restart: int = 60
    gs_variant: str = "one_reduce"
    # Keep per-iteration residual norms in the solve records / telemetry
    # (convergence traces); off skips the per-iteration bookkeeping.
    record_history: bool = True
    # Split halo exchange in solver SpMVs (matvec(overlap=True)): each
    # rank applies its diag block while boundary data is in flight.
    # Bitwise-identical solutions; only the communication schedule (and
    # the priced halo wait) changes.
    overlap: bool = False

    def to_dict(self) -> dict:
        """JSON-shaped dict of the solver settings (round-trip form)."""
        return {
            "method": self.method,
            "tol": self.tol,
            "max_iters": self.max_iters,
            "restart": self.restart,
            "gs_variant": self.gs_variant,
            "record_history": self.record_history,
            "overlap": self.overlap,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SolverConfig":
        """Strictly-validated inverse of :meth:`to_dict`."""
        return cls(
            **strict_kwargs(
                "SolverConfig",
                data,
                {
                    "method": as_str,
                    "tol": as_float,
                    "max_iters": as_int,
                    "restart": as_int,
                    "gs_variant": as_str,
                    "record_history": as_bool,
                    "overlap": as_bool,
                },
            )
        )

    def stable_hash(self) -> str:
        """Canonical content digest of the solver settings."""
        return stable_digest(self.to_dict())


@dataclass
class SimulationConfig:
    """Full configuration of a Nalu-Wind-style simulation run.

    Attributes mirror the paper's setup (§5): 4 Picard iterations per time
    step, uniform 8 m/s inflow, rigid blades, GMRES+SGS2 for momentum and
    scalars, GMRES+BoomerAMG for pressure.
    """

    # Physics.
    density: float = 1.2
    viscosity: float = 1.8e-5
    inflow_velocity: tuple[float, float, float] = (8.0, 0.0, 0.0)
    dt: float = 0.05
    picard_iterations: int = 4
    rhie_chow: bool = True
    # Picard under-relaxation (SIMPLE-style): needed when the near-wall
    # advective CFL is large, where the nonlinear u <-> p fixed point can
    # diverge without damping.  The flux correction always uses the full
    # p' so continuity is unaffected.
    velocity_relax: float = 0.7
    pressure_relax: float = 0.5
    scalar_diffusivity: float = 1e-3

    # Decomposition.
    nranks: int = 4
    partition_method: str = "parmetis"  # or "rcb"
    # Seed for the simulated world's RNG (campaign JobSpec.seed lands
    # here); distinct seeds give statistically independent replicas of
    # the same workload.
    world_seed: int = 0

    # Assembly (paper §3): "optimized" | "sparse_add" | "general".
    assembly_variant: str = "optimized"
    # Local-assembly accumulation (paper §3.2):
    # "atomic" | "deterministic" | "compensated".
    assembly_mode: str = "atomic"
    # Pattern-frozen global assembly: while the equation graph is
    # unchanged, replay the cached AssemblyPlan (value-only exchange +
    # segmented sums into the existing ParCSR storage) instead of
    # re-running sort/reduce/split.  Bitwise-identical operators; mesh
    # motion (graph rebuild) invalidates the plan automatically.
    reuse_assembly_plan: bool = True

    # Solvers.
    momentum_solver: SolverConfig = field(default_factory=SolverConfig)
    scalar_solver: SolverConfig = field(default_factory=SolverConfig)
    pressure_solver: SolverConfig = field(
        default_factory=lambda: SolverConfig(tol=1e-6, max_iters=300)
    )
    # Momentum/scalar SGS2 preconditioner (paper: 2 outer, 2 inner).
    sgs_outer: int = 2
    sgs_inner: int = 2
    # Pressure AMG.
    amg: AMGOptions = field(default_factory=lambda: AMGOptions())
    # Rebuild the pressure preconditioner every N solves (1 = always).
    precond_rebuild_every: int = 1
    # On solves that would otherwise reuse a stale hierarchy outright
    # (precond_rebuild_every > 1), run a numeric-only Galerkin refresh on
    # the frozen hierarchy structure instead (hypre's "reuse
    # interpolation" amortization).
    amg_refresh: bool = True

    # Resilience (docs/resilience.md): NaN/Inf guards + the recovery
    # escalation ladder for failed solves.
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    # Seeded deterministic fault injection (tests / chaos runs); empty
    # means a nominal run.
    faults: tuple[FaultSpec, ...] = ()
    fault_seed: int = 0

    # Durable checkpoint/restart (docs/checkpoint_restart.md).  A
    # checkpoint is written every N completed steps (0 disables);
    # restart_from names either a checkpoint file or a checkpoint
    # directory (the newest good ring entry is used).  Restored runs
    # reproduce the uninterrupted run bitwise.
    checkpoint_every: int = 0
    checkpoint_dir: str = "checkpoints"
    checkpoint_keep: int = 2
    restart_from: str = ""

    # Observability (docs/observability.md).  ``profile`` attaches a
    # per-rank TimelineProfiler to the world, pricing simulated rank
    # clocks on ``profile_machine``'s rates; the run report then carries
    # a ``repro.profile/1`` document.  ``clock`` overrides the Tracer's
    # wall-clock source (tests inject a deterministic fake clock so span
    # durations are assertable); None keeps ``time.perf_counter``.
    profile: bool = False
    profile_machine: str = "summit-gpu"
    clock: Callable[[], float] | None = None

    def validate(self) -> None:
        """Raise on inconsistent settings."""
        if self.partition_method not in ("parmetis", "rcb"):
            raise ValueError(
                f"unknown partition_method {self.partition_method!r}"
            )
        if self.assembly_variant not in ("optimized", "sparse_add", "general"):
            raise ValueError(
                f"unknown assembly_variant {self.assembly_variant!r}"
            )
        if self.assembly_mode not in ("atomic", "deterministic", "compensated"):
            raise ValueError(
                f"unknown assembly_mode {self.assembly_mode!r}"
            )
        for cfg_name in ("momentum_solver", "scalar_solver", "pressure_solver"):
            solver = getattr(self, cfg_name)
            if solver.method not in ("gmres", "cg", "pipelined_cg"):
                raise ValueError(
                    f"unknown {cfg_name}.method {solver.method!r}; "
                    "options ['gmres', 'cg', 'pipelined_cg']"
                )
            if not isinstance(solver.overlap, bool):
                raise ValueError(f"{cfg_name}.overlap must be a bool")
        if not isinstance(self.reuse_assembly_plan, bool):
            raise ValueError("reuse_assembly_plan must be a bool")
        if not isinstance(self.amg_refresh, bool):
            raise ValueError("amg_refresh must be a bool")
        if self.precond_rebuild_every < 1:
            raise ValueError("precond_rebuild_every must be >= 1")
        if self.picard_iterations < 1 or self.nranks < 1:
            raise ValueError("picard_iterations and nranks must be >= 1")
        if not (0.0 < self.velocity_relax <= 1.0):
            raise ValueError("velocity_relax must be in (0, 1]")
        if not (0.0 < self.pressure_relax <= 1.0):
            raise ValueError("pressure_relax must be in (0, 1]")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.checkpoint_keep < 1:
            raise ValueError("checkpoint_keep must be >= 1")
        if self.checkpoint_every and not self.checkpoint_dir:
            raise ValueError(
                "checkpoint_dir must be set when checkpoint_every > 0"
            )
        if not isinstance(self.profile, bool):
            raise ValueError("profile must be a bool")
        if self.profile and not self.profile_machine:
            raise ValueError(
                "profile_machine must be set when profile is on"
            )
        if self.clock is not None and not callable(self.clock):
            raise ValueError("clock must be callable (or None)")
        if self.world_seed < 0 or self.fault_seed < 0:
            raise ValueError("world_seed and fault_seed must be >= 0")
        self.recovery.validate()
        for spec in self.faults:
            spec.validate()

    #: ``stable_hash`` exclusions for the campaign job digest: durability
    #: knobs that change where/how often state is persisted but never the
    #: computed results, so they must not fragment the result cache.
    DURABILITY_KEYS = (
        "checkpoint_every",
        "checkpoint_dir",
        "checkpoint_keep",
        "restart_from",
    )

    def to_dict(self) -> dict:
        """JSON-shaped dict of the full configuration (round-trip form).

        ``clock`` is a runtime-only injection point (a callable) and has
        no serialized form; configs carrying one cannot be serialized.
        """
        if self.clock is not None:
            raise ValueError(
                "SimulationConfig.clock is runtime-only (a callable) and "
                "cannot be serialized; clear it before to_dict()"
            )
        return {
            "density": self.density,
            "viscosity": self.viscosity,
            "inflow_velocity": list(self.inflow_velocity),
            "dt": self.dt,
            "picard_iterations": self.picard_iterations,
            "rhie_chow": self.rhie_chow,
            "velocity_relax": self.velocity_relax,
            "pressure_relax": self.pressure_relax,
            "scalar_diffusivity": self.scalar_diffusivity,
            "nranks": self.nranks,
            "partition_method": self.partition_method,
            "world_seed": self.world_seed,
            "assembly_variant": self.assembly_variant,
            "assembly_mode": self.assembly_mode,
            "reuse_assembly_plan": self.reuse_assembly_plan,
            "momentum_solver": self.momentum_solver.to_dict(),
            "scalar_solver": self.scalar_solver.to_dict(),
            "pressure_solver": self.pressure_solver.to_dict(),
            "sgs_outer": self.sgs_outer,
            "sgs_inner": self.sgs_inner,
            "amg": self.amg.to_dict(),
            "precond_rebuild_every": self.precond_rebuild_every,
            "amg_refresh": self.amg_refresh,
            "recovery": self.recovery.to_dict(),
            "faults": [spec.to_dict() for spec in self.faults],
            "fault_seed": self.fault_seed,
            "checkpoint_every": self.checkpoint_every,
            "checkpoint_dir": self.checkpoint_dir,
            "checkpoint_keep": self.checkpoint_keep,
            "restart_from": self.restart_from,
            "profile": self.profile,
            "profile_machine": self.profile_machine,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationConfig":
        """Strictly-validated inverse of :meth:`to_dict`.

        Unknown keys and type mismatches raise ``ValueError``; absent
        keys take the dataclass defaults.  The result is
        :meth:`validate`-d before being returned.
        """
        defaults = cls()

        def solver_block(name: str):
            # A partial block overrides the owning field's default (the
            # pressure field's tol/max_iters are not SolverConfig()'s).
            base = getattr(defaults, name).to_dict()
            return nested(lambda d: SolverConfig.from_dict({**base, **d}))

        config = cls(
            **strict_kwargs(
                "SimulationConfig",
                data,
                {
                    "density": as_float,
                    "viscosity": as_float,
                    "inflow_velocity": as_float_triple,
                    "dt": as_float,
                    "picard_iterations": as_int,
                    "rhie_chow": as_bool,
                    "velocity_relax": as_float,
                    "pressure_relax": as_float,
                    "scalar_diffusivity": as_float,
                    "nranks": as_int,
                    "partition_method": as_str,
                    "world_seed": as_int,
                    "assembly_variant": as_str,
                    "assembly_mode": as_str,
                    "reuse_assembly_plan": as_bool,
                    "momentum_solver": solver_block("momentum_solver"),
                    "scalar_solver": solver_block("scalar_solver"),
                    "pressure_solver": solver_block("pressure_solver"),
                    "sgs_outer": as_int,
                    "sgs_inner": as_int,
                    "amg": nested(AMGOptions.from_dict),
                    "precond_rebuild_every": as_int,
                    "amg_refresh": as_bool,
                    "recovery": nested(RecoveryPolicy.from_dict),
                    "faults": nested_list(FaultSpec.from_dict),
                    "fault_seed": as_int,
                    "checkpoint_every": as_int,
                    "checkpoint_dir": as_str,
                    "checkpoint_keep": as_int,
                    "restart_from": as_str,
                    "profile": as_bool,
                    "profile_machine": as_str,
                },
            )
        )
        config.validate()
        return config

    def stable_hash(self, exclude: tuple[str, ...] = ()) -> str:
        """Canonical content digest of the configuration.

        Key-order independent (sorted-JSON SHA-256); any field change
        changes the digest.  ``exclude`` drops top-level keys before
        hashing — the campaign job digest passes
        :data:`DURABILITY_KEYS` so checkpoint placement never fragments
        the result cache.
        """
        doc = self.to_dict()
        for key in exclude:
            doc.pop(key, None)
        return stable_digest(doc)
