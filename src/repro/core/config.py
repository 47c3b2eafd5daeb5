"""Simulation configuration.

One dataclass gathers every knob the benchmark harness sweeps: physics
parameters, solver settings, the paper's optimization toggles (assembly
variant, inner GS sweeps, partitioner), and run control.

An option is one field: its annotation, default and ``field(metadata=...)``
(``"choices"`` naming the tuple of the module that implements them, a
``"ge"``/``"gt"``/``"le"``/``"lt"`` bound) are all :mod:`repro.serialize`
needs to derive ``to_dict``/``from_dict``/``validate``/``stable_hash``;
``docs/configuration.md`` has one row per option.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.amg.hierarchy import AMGOptions
from repro.assembly.global_assembly import VARIANTS as ASSEMBLY_VARIANTS
from repro.assembly.local import SCATTER_MODES
from repro.krylov import KRYLOV_METHODS
from repro.krylov.gram_schmidt import VARIANTS as GS_VARIANTS
from repro.partition import PARTITION_METHODS
from repro.perf.machines import MACHINES
from repro.resilience.injection import FaultSpec
from repro.resilience.policy import RecoveryPolicy
from repro.serialize import Config


@dataclass
class SolverConfig(Config):
    """Linear-solver settings for one equation system."""

    # Krylov method, dispatched through repro.krylov.make_krylov_solver.
    method: str = field(default="gmres", metadata={"choices": KRYLOV_METHODS})
    tol: float = 1e-5
    max_iters: int = 200
    restart: int = 60
    gs_variant: str = field(
        default="one_reduce", metadata={"choices": GS_VARIANTS}
    )
    # Split halo exchange in solver SpMVs (matvec(overlap=True)): each
    # rank applies its diag block while boundary data is in flight.
    # Bitwise-identical solutions; only the communication schedule (and
    # the priced halo wait) changes.
    overlap: bool = False


@dataclass
class SimulationConfig(Config):
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
    picard_iterations: int = field(default=4, metadata={"ge": 1})
    # Picard under-relaxation (SIMPLE-style): needed when the near-wall
    # advective CFL is large, where the nonlinear u <-> p fixed point can
    # diverge without damping.  The flux correction always uses the full
    # p' so continuity is unaffected.
    velocity_relax: float = field(default=0.7, metadata={"gt": 0.0, "le": 1.0})
    pressure_relax: float = field(default=0.5, metadata={"gt": 0.0, "le": 1.0})
    scalar_diffusivity: float = 1e-3

    # Decomposition.
    nranks: int = field(default=4, metadata={"ge": 1})
    partition_method: str = field(
        default="parmetis", metadata={"choices": PARTITION_METHODS}
    )
    # Seed for the simulated world's RNG (campaign JobSpec.seed lands
    # here); distinct seeds give statistically independent replicas of
    # the same workload.
    world_seed: int = field(default=0, metadata={"ge": 0})

    # Global-assembly algorithm (paper §3.3).
    assembly_variant: str = field(
        default="optimized", metadata={"choices": ASSEMBLY_VARIANTS}
    )
    # Local-assembly accumulation (paper §3.2).
    assembly_mode: str = field(
        default="atomic", metadata={"choices": SCATTER_MODES}
    )
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
    sgs_outer: int = field(default=2, metadata={"ge": 1})
    sgs_inner: int = field(default=2, metadata={"ge": 0})
    # Pressure AMG.
    amg: AMGOptions = field(default_factory=lambda: AMGOptions())
    # The two inputs of the preconditioner rule (EquationSystem.solve: set
    # up when the operator's pattern moved, refresh when only its values
    # did, reuse when neither).  One set-up serves at most
    # precond_rebuild_every solves; 1 sets up at every solve, the cadence
    # the paper measured.  The default is the longest run one set-up was
    # measured to serve (docs/solver_api.md): a cap, not a tuning value.
    precond_rebuild_every: int = field(default=12, metadata={"ge": 1})
    # False makes that bound 1.
    amg_refresh: bool = True

    # Resilience (docs/resilience.md): NaN/Inf guards + the recovery
    # escalation ladder for failed solves.
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    # Seeded deterministic fault injection (tests / chaos runs); empty
    # means a nominal run.
    faults: tuple[FaultSpec, ...] = ()
    fault_seed: int = field(default=0, metadata={"ge": 0})

    # Durable checkpoint/restart (docs/checkpoint_restart.md).  A
    # checkpoint is written every N completed steps (0 disables);
    # restart_from names either a checkpoint file or a checkpoint
    # directory (the newest good ring entry is used).  Restored runs
    # reproduce the uninterrupted run bitwise.
    checkpoint_every: int = field(default=0, metadata={"ge": 0})
    checkpoint_dir: str = "checkpoints"
    checkpoint_keep: int = field(default=2, metadata={"ge": 1})
    restart_from: str = ""

    # Observability (docs/observability.md).  ``profile`` attaches a
    # per-rank TimelineProfiler to the world, pricing simulated rank
    # clocks on ``profile_machine``'s rates; the run telemetry then
    # carries a ``profile`` section.  ``clock`` overrides the Tracer's
    # wall-clock source (tests inject a deterministic fake clock so span
    # durations are assertable); None keeps ``time.perf_counter``.  It is
    # runtime-only: no serialised form, not in any hash.
    profile: bool = False
    profile_machine: str = "summit-gpu"
    clock: Callable[[], float] | None = field(
        default=None, metadata={"runtime": True}
    )

    def validate(self) -> None:
        """Raise on inconsistent settings."""
        super().validate()
        if self.checkpoint_every and not self.checkpoint_dir:
            raise ValueError(
                "checkpoint_dir must be set when checkpoint_every > 0"
            )
        if self.profile and self.profile_machine not in MACHINES:
            raise ValueError(
                f"profile_machine {self.profile_machine!r} must be one of "
                f"{tuple(MACHINES)} when profile is on"
            )
        if self.clock is not None and not callable(self.clock):
            raise ValueError("clock must be callable (or None)")

    #: ``stable_hash`` exclusions for the campaign job digest: durability
    #: knobs that change where/how often state is persisted but never the
    #: computed results, so they must not fragment the result cache.  A
    #: checkpoint write ends no lifetime (the file says what derived state
    #: was live and a restart rebuilds it), so the cadence is one of them.
    DURABILITY_KEYS = (
        "checkpoint_every",
        "checkpoint_dir",
        "checkpoint_keep",
        "restart_from",
    )
