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
from repro.core.composite import CompositeMesh
from repro.core.config import SimulationConfig
from repro.krylov import KrylovResult, make_krylov_solver
from repro.linalg.parcsr import ParCSRMatrix
from repro.linalg.parvector import ParVector
from repro.overset.assembler import NodeStatus
from repro.resilience.guards import operands_are_finite
from repro.resilience.policy import solve_with_recovery

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

    ``residual_history`` holds the solve's per-iteration relative
    residual norms.
    """

    iterations: int
    residual_norm: float
    converged: bool
    residual_history: list[float] = field(default_factory=list)


class HeldStorage:
    """Device bytes per rank of a derived object this process does not hold.

    A cold restart puts one in the slot of an object it never built;
    :meth:`EquationSystem.update_graph` puts one in the slot of the
    operator a moved pattern ended, and
    :meth:`EquationSystem.drop_preconditioner` of the pressure system in
    the slot of the AMG hierarchy it ended.  The host frees the object at
    once; the modeled allocator frees its bytes where the object itself
    would have been released.
    """

    def __init__(self, world, per_rank: list[float]) -> None:
        self.world = world
        self.per_rank = per_rank

    def held(self) -> list[float]:
        """Per-rank bytes still held (zero once released)."""
        return list(self.per_rank)

    def release(self) -> None:
        """Free the bytes; idempotent, as the objects' own ``release``."""
        self.world.charge_alloc([-b for b in self.per_rank])
        self.per_rank = [0.0] * len(self.per_rank)


class EquationSystem:
    """Base pipeline; subclasses provide physics and preconditioning."""

    name = "equation"
    #: Slots whose object keeps modeled device storage from step to step.
    HOLDERS = ("assembler", "_matrix")

    def __init__(self, comp: CompositeMesh, config: SimulationConfig) -> None:
        self.comp = comp
        self.config = config
        self.world = comp.world
        self.graph: EquationGraph | None = None
        #: False once :meth:`drop_graph` ended the graph's lifetime: the
        #: next :meth:`update_graph` rebuilds even an unmoved pattern.
        self._graph_live = False
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
        #: Rows with strong boundary conditions: boundary sets do not move,
        #: so :meth:`dirichlet_rows` is read once, here.
        self.dirichlet = self.dirichlet_rows()
        self.dirichlet.flags.writeable = False

    # -- constraint sets (application ids), subclass-specific -------------------

    def dirichlet_rows(self) -> np.ndarray:
        """Rows with strong boundary conditions (subclass hook)."""
        return np.zeros(0, dtype=np.int64)

    def constraint_rows(self) -> np.ndarray:
        """All constraint rows: Dirichlet + overset fringe + holes.

        Computed once per mesh position (the
        :class:`~repro.core.composite.PositionStore` keeps them); read-only.
        """
        return self.comp.store.constraint_rows(self)

    # -- pipeline ------------------------------------------------------------------

    def phase(self, suffix: str) -> str:
        """Full phase label for this equation."""
        return f"{self.name}/{suffix}"

    def update_graph(self) -> None:
        """Stage 1, once per step: rebuild the graph if the pattern moved.

        The same edges and constraint rows as the current graph's keep the
        graph, its :attr:`EquationGraph.revision` and its assembler, so the
        assembly plan replays and the preconditioner is refreshed rather
        than set up again.  (``n`` and the numbering are the mesh's, fixed
        at construction.)

        A moved pattern (or one whose lifetime :meth:`drop_graph` ended)
        ends the old graph, assembler, plan, operator and preconditioner
        *before* their successors are built, so the two never coexist.
        The assembler's modeled storage is freed here, as always; the
        operator's slot keeps a :class:`HeldStorage` of its bytes, so the
        modeled allocator frees them at the next :meth:`assemble`, where
        the operator itself would have been released.
        """
        with self.world.phase_scope(self.phase("graph")):
            spec = GraphSpec(
                n=self.comp.n,
                edges=self.comp.edges,
                constraint_rows=self.constraint_rows(),
            )
            old = self.graph
            if (
                self._graph_live
                and np.array_equal(spec.edges, old.spec.edges)
                and np.array_equal(
                    spec.constraint_rows, old.spec.constraint_rows
                )
            ):
                return
            del old
            self.drop_preconditioner()
            if self.assembler is not None:
                self.assembler.release()
            if self._matrix is not None:
                self._matrix = HeldStorage(self.world, self._matrix.held())
            self.graph = self.assembler = self._plan = None
            self.graph = EquationGraph(self.world, self.comp.numbering, spec)
            self._graph_live = True
            self.assembler = LocalAssembler(
                self.world, self.graph, mode=self.config.assembly_mode
            )

    def drop_graph(self) -> None:
        """End the lifetime of the graph, its plan and the preconditioner.

        The next :meth:`update_graph` rebuilds the graph even on an unmoved
        pattern; its new revision makes the next :meth:`assemble` capture
        a fresh plan and the next :meth:`solve` set the preconditioner up:
        what a process restarted here does, holding no derived state.
        Until then the old objects stay readable and their storage held,
        as a restart's :class:`HeldStorage` does; that rebuild ends them
        before building their successors.
        """
        self._graph_live = False

    def drop_preconditioner(self) -> None:
        """End the lifetime of the preconditioner: the next :meth:`solve`
        sets it up afresh.

        The one end point of that lifetime: :meth:`update_graph` on a
        moved pattern, the start-up steps, a set-up or refresh that builds
        a successor (before building it) and :meth:`reset_solver_caches`
        call it, so the host never holds two.  A subclass whose
        preconditioner keeps modeled storage parks its bytes in a
        :class:`HeldStorage` here; the set-up that follows frees them.
        """
        self._precond = None

    # -- the derived-state section of a checkpoint ---------------------------------

    def _captured_plan(self) -> AssemblyPlan | None:
        """The plan captured for the current graph, if any."""
        plan = self._plan
        current = (
            plan is not None
            and self.graph is not None
            and plan.graph_revision == self.graph.revision
            and plan.matrix_ready
        )
        return plan if current else None

    def derived(self) -> tuple[dict[str, np.ndarray], dict]:
        """What of the derived state is live, as ``(arrays, meta)``: whether
        the graph and a captured plan are.  Both depend only on the
        position, which the checkpoint carries, so flags suffice."""
        live = self._graph_live
        return {}, {
            "graph": live,
            "plan": live and self._captured_plan() is not None,
        }

    def rebuild_derived(
        self, arrays: dict[str, np.ndarray], meta: dict
    ) -> None:
        """Rebuild what :meth:`derived` reported live, on the restored
        position (the caller runs this off the ledger): the graph, and
        the plan, captured from an all-zero fill, which has the pattern
        of every fill.  The next :meth:`assemble` then replays the plan
        into the operator it captured, as the writer's next one did."""
        if not meta["graph"]:
            return
        self.update_graph()
        if meta["plan"] and self._active_plan() is not None:
            self._matrix = self._assemble_zeros(self._plan)

    def _assemble_zeros(self, plan: AssemblyPlan | None) -> ParCSRMatrix:
        """Stages 2 + 3 of an all-zero fill (capturing ``plan``); the
        operator has the graph's pattern."""
        self.assembler.reset()
        local = self.assembler.finalize()
        args = (self.world, self.comp.numbering, local)
        variant = self.config.assembly_variant
        am = assemble_global_matrix(
            *args, variant=variant, name=self.name, plan=plan
        )
        assemble_global_vector(*args, variant=variant, plan=plan)
        return am.matrix

    def _to_new(self, vals_app: np.ndarray) -> np.ndarray:
        """Reorder a per-application-id array to new (rank-block) ids."""
        return vals_app[self.comp.numbering.new_to_old]

    def _active_plan(self) -> AssemblyPlan | None:
        """The assembly plan for the current graph (reuse enabled only).

        A plan is keyed to one :class:`EquationGraph` revision; a moved
        pattern rebuilds the graph, bumps the revision, and the stale plan
        is replaced by a fresh (uncaptured) one here.
        """
        if not self.config.reuse_assembly_plan or self.graph is None:
            return None
        plan = self._plan
        if plan is None or plan.graph_revision != self.graph.revision:
            self._plan = AssemblyPlan(
                self.comp.numbering,
                variant=self.config.assembly_variant,
                graph=self.graph,
                name=self.name,
            )
        return self._plan

    def assemble(self, **kwargs) -> tuple[ParCSRMatrix, ParVector]:
        """Stages 2 + 3: fill values and run the global assembly."""
        if not self._graph_live:
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
        self.drop_preconditioner()
        self._precond = self.make_preconditioner(A)

    def _update_preconditioner(self, A: ParCSRMatrix) -> None:
        """Make ``self._precond`` current for ``A``: set up, refresh or
        reuse, decided by what the operator is.

        * **Set up** when there is none, when the operator's pattern moved
          (a new :attr:`EquationGraph.revision`, which :meth:`update_graph`
          keeps while the pattern holds), or when one set-up has served
          ``precond_rebuild_every`` solves, counted across steps (every
          solve under ``amg_refresh=False``).
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
            self.drop_preconditioner()
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
        self._plan = None
        self.drop_preconditioner()

    def held_storage(self) -> dict[str, list[float]]:
        """Per-rank device bytes of each filled :attr:`HOLDERS` slot."""
        return {
            slot: getattr(self, slot).held()
            for slot in self.HOLDERS
            if getattr(self, slot) is not None
        }

    def hold_storage(self, held: dict[str, list[float]]) -> None:
        """Cold restart: stand the writer's :meth:`held_storage` in for the
        objects this process never built."""
        for slot, per_rank in held.items():
            setattr(self, slot, HeldStorage(self.world, per_rank))

    def solve(
        self, A: ParCSRMatrix, b: ParVector, x0: ParVector | None = None
    ) -> KrylovResult:
        """Preconditioner update + Krylov solve, with phase attribution.

        The equation offers one *attempt* (:meth:`_update_preconditioner`
        then :meth:`_run_krylov`); ``solve_with_recovery`` owns what happens
        around it: operand guard, health check, escalation ladder, every
        failure/recovery record.  An exhausted ladder raises
        ``SolverFailure`` for the step transaction's rewind to handle.
        """

        def attempt(cfg, rebuild: bool) -> KrylovResult:
            if rebuild:
                self.reset_solver_caches()
            with self.world.phase_scope(self.phase("precond_setup")):
                self._update_preconditioner(A)
            return self._run_krylov(A, b, x0, cfg)

        result = solve_with_recovery(
            self.world,
            self.config.recovery,
            self.name,
            self.solver_config(),
            attempt,
            lambda: operands_are_finite(A, b),
        )
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
