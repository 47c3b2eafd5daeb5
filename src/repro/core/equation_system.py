"""Equation systems: the per-equation graph -> assemble -> solve pipeline.

Each governing equation (momentum, pressure-Poisson, scalar transport) owns
the full pipeline of the paper:

* Stage 1 graph computation when connectivity changes (``<eq>/graph``),
* Stage 2 local assembly every Picard iteration (``<eq>/local_assembly``),
* Stage 3 global assembly, Algorithms 1-2 (``<eq>/global_assembly``),
* preconditioner setup (``<eq>/precond_setup``),
* GMRES solve (``<eq>/solve``).

The phase labels match the paper's per-equation breakdown bars (Figs. 6-7):
graph+physics (purple), local assembly (green), global assembly (red),
preconditioner setup (blue), solve (orange).

Every stage runs inside ``world.phase_scope(<label>)`` — the one boundary
that attributes its traffic and op counts, drives the profiler's rank
clocks and times it on the host clock — and every equation stage is entered
in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.amg.cycle import AMGCycleOptions, AMGPreconditioner
from repro.amg.hierarchy import AMGHierarchy
from repro.assembly.global_assembly import (
    assemble_global_matrix,
    assemble_global_vector,
)
from repro.assembly.graph import EquationGraph, GraphSpec
from repro.assembly.local import LocalAssembler
from repro.assembly.plan import AssemblyPlan
from repro.comm.errors import CommError
from repro.core.composite import CompositeMesh
from repro.core.config import SimulationConfig
from repro.krylov import KrylovResult, make_krylov_solver
from repro.linalg.parcsr import ParCSRMatrix
from repro.linalg.parvector import ParVector
from repro.overset.assembler import NodeStatus
from repro.resilience.guards import (
    SolverFailure,
    classify_failure,
    iterate_is_finite,
    operands_are_finite,
)
from repro.resilience.policy import (
    RecoveryEvent,
    RecoveryPolicy,
    record_failure,
    record_recovery,
)

#: Phase suffixes, in the paper's breakdown order.
PHASES = (
    "graph",
    "local_assembly",
    "global_assembly",
    "precond_setup",
    "solve",
)


@dataclass
class SolveRecord:
    """Iteration/convergence record of one linear solve.

    ``residual_history`` holds per-iteration relative residual norms when
    the equation's :class:`~repro.core.config.SolverConfig` has
    ``record_history`` on (the default); empty otherwise.
    """

    iterations: int
    residual_norm: float
    converged: bool
    residual_history: list[float] = field(default_factory=list)


class EquationSystem:
    """Base pipeline; subclasses provide physics and preconditioning."""

    name = "equation"

    def __init__(self, comp: CompositeMesh, config: SimulationConfig) -> None:
        self.comp = comp
        self.config = config
        self.world = comp.world
        self.graph: EquationGraph | None = None
        self.assembler: LocalAssembler | None = None
        self.solve_records: list[SolveRecord] = []
        # Pipeline state, initialized eagerly (lazy getattr/hasattr checks
        # survive attribute typos silently).
        self._matrix: ParCSRMatrix | None = None
        self._plan: AssemblyPlan | None = None
        #: Stamp of the operator's values: :meth:`assemble`, their only
        #: producer, bumps it.
        self._values_stamp = 0
        # The preconditioner, the operator it is current for (graph
        # revision, value stamp) and the solves its set-up has served.
        self._precond = None
        self._precond_pattern: int | None = None
        self._precond_values = 0
        self._served = 0

    # -- constraint sets (application ids), subclass-specific -------------------

    def dirichlet_rows(self) -> np.ndarray:
        """Rows with strong boundary conditions (subclass hook)."""
        return np.zeros(0, dtype=np.int64)

    def constraint_rows(self) -> np.ndarray:
        """All constraint rows: Dirichlet + overset fringe + holes."""
        return np.unique(
            np.concatenate(
                [
                    self.dirichlet_rows(),
                    self.comp.fringe_nodes(),
                    self.comp.hole_nodes(),
                ]
            )
        )

    # -- pipeline ------------------------------------------------------------------

    def phase(self, suffix: str) -> str:
        """Full phase label for this equation."""
        return f"{self.name}/{suffix}"

    def update_graph(self) -> None:
        """Stage 1 (run when mesh motion changes connectivity)."""
        if self.assembler is not None:
            self.assembler.release()
        with self.world.phase_scope(self.phase("graph")):
            spec = GraphSpec(
                n=self.comp.n,
                edges=self.comp.edges,
                constraint_rows=self.constraint_rows(),
            )
            self.graph = EquationGraph(self.world, self.comp.numbering, spec)
            self.assembler = LocalAssembler(
                self.world, self.graph, mode=self.config.assembly_mode
            )

    def _to_new(self, vals_app: np.ndarray) -> np.ndarray:
        """Reorder a per-application-id array to new (rank-block) ids."""
        return vals_app[self.comp.numbering.new_to_old]

    def _active_plan(self) -> AssemblyPlan | None:
        """The assembly plan for the current graph (reuse enabled only).

        A plan is keyed to one :class:`EquationGraph` revision; mesh
        motion rebuilds the graph, bumps the revision, and the stale plan
        is replaced by a fresh (uncaptured) one here.
        """
        if not self.config.reuse_assembly_plan or self.graph is None:
            return None
        plan = self._plan
        if plan is None or plan.graph_revision != self.graph.revision:
            # Cross-job sharing: a campaign-attached PlanCache may hold a
            # fully-captured plan for this exact pattern (equal
            # fingerprint) from an earlier job of the sweep; adopting it
            # skips the cold capture entirely.
            cache = self.world.plan_cache
            adopted = (
                cache.adopt(
                    self.world,
                    self.graph,
                    self.comp.numbering,
                    self.config.assembly_variant,
                    self.name,
                )
                if cache is not None
                else None
            )
            if adopted is not None:
                plan = adopted
            else:
                plan = AssemblyPlan(
                    self.comp.numbering,
                    variant=self.config.assembly_variant,
                    graph=self.graph,
                    name=self.name,
                )
                if cache is not None:
                    cache.offer(
                        self.graph,
                        self.comp.numbering,
                        self.config.assembly_variant,
                        self.name,
                        plan,
                    )
            self._plan = plan
        return plan

    def assemble(self, **kwargs) -> tuple[ParCSRMatrix, ParVector]:
        """Stages 2 + 3: fill values and run the global assembly."""
        if self.graph is None:
            self.update_graph()
        asmblr = self.assembler
        with self.world.phase_scope(self.phase("local_assembly")):
            asmblr.reset()
            self.fill(asmblr, **kwargs)
            local = asmblr.finalize()
        plan = self._active_plan()
        fast = plan is not None and plan.matrix_ready
        # Last iteration's operator is replaced: return its storage first.
        # The fast path updates the cached operator in place, so nothing
        # is released there.
        if not fast and self._matrix is not None:
            self._matrix.release()
        with self.world.phase_scope(self.phase("global_assembly")):
            am = assemble_global_matrix(
                self.world,
                self.comp.numbering,
                local,
                variant=self.config.assembly_variant,
                name=self.name,
                plan=plan,
            )
            rhs = assemble_global_vector(
                self.world,
                self.comp.numbering,
                local,
                variant=self.config.assembly_variant,
                plan=plan,
            )
        self._matrix = am.matrix
        self._values_stamp += 1
        injector = self.world.fault_injector
        if injector is not None:
            injector.on_matrix(
                am.matrix, self.name, phase=self.phase("global_assembly")
            )
        return am.matrix, rhs

    def assemble_rhs(self, **kwargs) -> ParVector:
        """RHS-only stages 2 + 3 on the operator of the last :meth:`assemble`.

        For systems that solve several right-hand sides on one shared
        matrix (momentum: a ``fill_rhs`` hook, one call per component).
        """
        asmblr = self.assembler
        with self.world.phase_scope(self.phase("local_assembly")):
            asmblr.reset_rhs()
            self.fill_rhs(asmblr, **kwargs)
            local = asmblr.finalize()
        with self.world.phase_scope(self.phase("global_assembly")):
            return assemble_global_vector(
                self.world,
                self.comp.numbering,
                local,
                variant=self.config.assembly_variant,
                plan=self._active_plan(),
            )

    def fill(self, asmblr: LocalAssembler, **kwargs) -> None:
        """Physics fill (subclass hook): add edge/node/constraint values."""
        raise NotImplementedError

    def make_preconditioner(self, A: ParCSRMatrix):
        """Subclass hook: build the preconditioner for a fresh matrix."""
        raise NotImplementedError

    def refresh_preconditioner(self, A: ParCSRMatrix) -> None:
        """Subclass hook: bring ``self._precond`` up to date with new
        values of ``A`` on the pattern it was set up for.  The default has
        nothing cheaper than building it again."""
        self._precond = self.make_preconditioner(A)

    def _update_preconditioner(self, A: ParCSRMatrix) -> None:
        """Make ``self._precond`` current for ``A``: set up, refresh or
        reuse, decided by what the operator is.

        * **Set up** when there is none, when the operator's pattern moved
          (a new :attr:`EquationGraph.revision`), or when one set-up has
          served ``precond_rebuild_every`` solves (every solve under
          ``amg_refresh=False``).
        * **Refresh** when only the values moved (a new :meth:`assemble`).
        * **Reuse** when neither did: the momentum components share one
          matrix.

        A preconditioner is therefore never stale.
        """
        cfg = self.config
        bound = cfg.precond_rebuild_every if cfg.amg_refresh else 1
        pattern = None if self.graph is None else self.graph.revision
        if (
            self._precond is None
            or self._precond_pattern != pattern
            or self._served >= bound
        ):
            self._precond = self.make_preconditioner(A)
            self._served = 0
        elif self._precond_values != self._values_stamp:
            self.refresh_preconditioner(A)
        self._precond_pattern = pattern
        self._precond_values = self._values_stamp
        self._served += 1

    def solver_config(self):
        """Subclass hook: which SolverConfig applies."""
        raise NotImplementedError

    def reset_solver_caches(self) -> None:
        """Drop every cached setup product (plan, preconditioner, AMG).

        Recovery hook: the next :meth:`assemble` re-captures the assembly
        plan from scratch (cold path, fresh operator storage) and the
        next :meth:`solve` rebuilds the preconditioner — nothing derived
        from a possibly-corrupted operator survives.
        """
        if self.world.plan_cache is not None:
            self.world.plan_cache.invalidate(self._plan)
        self._plan = None
        self._precond = None

    def solve(
        self, A: ParCSRMatrix, b: ParVector, x0: ParVector | None = None
    ) -> KrylovResult:
        """Preconditioner setup + Krylov solve, with phase attribution.

        With guards on (``config.recovery.guards``), a NaN/Inf iterate —
        and, when ``config.recovery`` is enabled, a non-converged solve —
        triggers the recovery escalation ladder instead of being recorded
        silently; an exhausted ladder raises
        :class:`~repro.resilience.guards.SolverFailure` for the
        simulation-level rollback to handle.
        """
        cfg = self.solver_config()
        policy = self.config.recovery
        # Corrupted operands are caught before preconditioner setup: a
        # hierarchy built from a NaN operator is garbage (and noisy), and
        # no solver-level retry can help — only the simulation-level
        # rollback re-assembles the operands.
        if policy.guards and not operands_are_finite(A, b):
            failure = SolverFailure(
                f"{self.name} operands are non-finite before solve",
                equation=self.name,
                kind="nonfinite_operands",
                phase=self.phase("solve"),
            )
            record_failure(self.world, failure)
            raise failure
        # Transport failures (dropped/corrupt halo messages that exhausted
        # the comm retry budget) escalate into the same ladder as solver
        # failures: the retry rungs re-drive the exchanges, and one-shot
        # injected faults will not re-fire.
        try:
            with self.world.phase_scope(self.phase("precond_setup")):
                self._update_preconditioner(A)
            result = self._run_krylov(A, b, x0, cfg)
            kind = self._classify_failure(result, policy)
        except CommError as exc:
            kind = classify_failure(exc)
            # The aborted exchange left its round's remaining messages in
            # flight; purge them so recovery retries reach clean channels.
            self.world.purge_pending(reason=kind)
            result = self._aborted_result(b, cfg, str(exc))
        if kind is not None:
            result = self._recover(A, b, x0, cfg, result, kind, policy)
        record = SolveRecord(
            iterations=result.iterations,
            residual_norm=result.residual_norm,
            converged=result.converged,
            residual_history=list(result.residual_history),
        )
        self.solve_records.append(record)
        # Publish convergence telemetry: per-equation counters feed the
        # NLI statistics (Figs. 3/8/9), the histogram the iteration
        # distributions, and the hub lets tests/benchmarks observe solves
        # without monkey-patching.
        metrics = self.world.metrics
        metrics.counter("solve.count", equation=self.name).inc()
        metrics.counter("solve.iterations", equation=self.name).inc(
            result.iterations
        )
        metrics.histogram("solve.iterations", equation=self.name).observe(
            result.iterations
        )
        self.world.hub.emit(
            "solve", equation=self.name, record=record, result=result
        )
        if self.world.profiler is not None:
            self.world.profiler.on_marker(
                "solve",
                equation=self.name,
                iterations=result.iterations,
                converged=bool(result.converged),
            )
        return result

    # -- failure handling -------------------------------------------------------

    def _aborted_result(self, b: ParVector, cfg, detail: str) -> KrylovResult:
        """Placeholder result for a solve aborted before producing one.

        Used when a transport error interrupts preconditioner setup or
        the Krylov iteration itself; carries a zero iterate and an
        infinite residual so every health check downstream reads it as
        failed.
        """
        return KrylovResult(
            x=b.like(),
            iterations=0,
            residual_norm=float("inf"),
            converged=False,
            residual_history=[],
            method=f"{cfg.method} (aborted: {detail})",
        )

    def _run_krylov(
        self, A: ParCSRMatrix, b: ParVector, x0: ParVector | None, cfg
    ) -> KrylovResult:
        """One Krylov attempt under solve-phase attribution."""
        with self.world.phase_scope(self.phase("solve")):
            solver = make_krylov_solver(A, self._precond, cfg)
            result = solver.solve(b, x0=x0)
        injector = self.world.fault_injector
        if injector is not None and injector.on_solve(
            self.name, phase=self.phase("solve")
        ):
            result = replace(result, converged=False)
        return result

    def _classify_failure(
        self, result: KrylovResult, policy: RecoveryPolicy
    ) -> str | None:
        """Failure kind of a solve result, or None when it is healthy."""
        if policy.guards and not iterate_is_finite(result):
            return "nonfinite_iterate"
        if (
            policy.enabled
            and policy.recover_non_convergence
            and not result.converged
        ):
            return "non_convergence"
        return None

    def _failure(
        self,
        result: KrylovResult,
        kind: str,
        attempts: tuple[str, ...] = (),
    ) -> SolverFailure:
        """Structured failure carrying the solve's diagnostic context."""
        return SolverFailure(
            f"{self.name} solve failed ({kind}): residual "
            f"{result.residual_norm:.3e} after {result.iterations} "
            f"iterations"
            + (f"; tried {list(attempts)}" if attempts else ""),
            equation=self.name,
            kind=kind,
            phase=self.phase("solve"),
            residual_norm=result.residual_norm,
            iterations=result.iterations,
            residual_history=list(result.residual_history),
            attempts=attempts,
        )

    def _recover(
        self,
        A: ParCSRMatrix,
        b: ParVector,
        x0: ParVector | None,
        cfg,
        result: KrylovResult,
        kind: str,
        policy: RecoveryPolicy,
    ) -> KrylovResult:
        """Run the solver-level escalation ladder for a failed solve.

        Returns the first healthy retry result; raises
        :class:`SolverFailure` when recovery is disabled, the operands
        themselves are corrupted (retries cannot help — only the
        simulation-level rollback re-assembles them), or the ladder is
        exhausted.
        """
        failure = self._failure(result, kind)
        record_failure(self.world, failure)
        if not policy.enabled:
            raise failure
        if not operands_are_finite(A, b):
            raise self._failure(result, "nonfinite_operands")
        attempts: list[str] = []
        with self.world.phase_scope(self.phase("recovery")):
            for attempt, action in enumerate(policy.ladder, start=1):
                attempts.append(action)
                detail = ""
                candidate: KrylovResult | None = None
                try:
                    candidate = self._attempt_recovery(
                        action, A, b, x0, cfg, policy
                    )
                    ok = iterate_is_finite(candidate) and (
                        candidate.converged
                        or not policy.recover_non_convergence
                    )
                    if not ok:
                        detail = (
                            f"residual {candidate.residual_norm:.3e}, "
                            f"converged={candidate.converged}"
                        )
                except Exception as exc:  # noqa: BLE001 - recorded, escalated
                    ok = False
                    detail = f"{type(exc).__name__}: {exc}"
                event = RecoveryEvent(
                    equation=self.name,
                    kind=kind,
                    action=action,
                    attempt=attempt,
                    success=ok,
                    detail=detail,
                )
                record_recovery(self.world, event)
                if ok:
                    return candidate
        raise self._failure(result, kind, attempts=tuple(attempts))

    def _attempt_recovery(
        self,
        action: str,
        A: ParCSRMatrix,
        b: ParVector,
        x0: ParVector | None,
        cfg,
        policy: RecoveryPolicy,
    ) -> KrylovResult:
        """One ladder rung: adjust state/config, retry the solve."""
        if action == "rebuild_precond":
            self.reset_solver_caches()
            with self.world.phase_scope(self.phase("precond_setup")):
                self._update_preconditioner(A)
            return self._run_krylov(A, b, x0, cfg)
        if action == "expand_krylov":
            boosted = replace(
                cfg,
                restart=max(1, int(cfg.restart * policy.retry_scale)),
                max_iters=max(1, int(cfg.max_iters * policy.retry_scale)),
            )
            return self._run_krylov(A, b, x0, boosted)
        if action == "fallback_method":
            # Both CG flavors fall back to GMRES (the robust general
            # method); GMRES falls back to classical CG.
            alternate = "cg" if cfg.method == "gmres" else "gmres"
            return self._run_krylov(A, b, x0, replace(cfg, method=alternate))
        raise ValueError(f"unknown recovery action {action!r}")

    # -- helpers shared by the physics subclasses -----------------------------------

    def constraint_values_to_rhs(
        self, asmblr: LocalAssembler, values_app: np.ndarray
    ) -> None:
        """Identity constraint rows: diag 1 handled via add_diag by caller;
        here the RHS takes the prescribed value (new numbering)."""
        rows_app = self.constraint_rows()
        rows_new = self.comp.numbering.old_to_new[rows_app]
        asmblr.set_constraint_rhs(rows_new, values_app[rows_app])

    def unit_constraint_diag(self) -> np.ndarray:
        """Diagonal contribution: 1 on constraint rows, 0 elsewhere (new)."""
        d = np.zeros(self.comp.n)
        d[self.constraint_rows()] = 1.0
        return self._to_new(d)
