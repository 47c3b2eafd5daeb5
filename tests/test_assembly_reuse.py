"""Tests for the pattern-frozen assembly fast path and setup reuse.

Covers the AssemblyPlan capture/replay equivalence (the fast path must
produce *exactly* the operator the cold path would — values, indptr,
indices, diag/offd split — across all three assembly variants), plan
invalidation on graph rebuild, the AMG numeric refresh, and the unified
Krylov/smoother APIs that ride along.
"""

import numpy as np
import pytest

from repro.amg.hierarchy import AMGHierarchy, AMGOptions
from repro.assembly import (
    AssemblyPlan,
    EquationGraph,
    GraphSpec,
    LocalAssembler,
    assemble_global_matrix,
    assemble_global_vector,
)
from repro.comm import SimWorld
from repro.core import CompositeMesh, SimulationConfig
from repro.krylov import (
    CG,
    GMRES,
    KrylovResult,
    make_krylov_solver,
)
from repro.linalg.parcsr import ParCSRMatrix
from repro.mesh import make_turbine_tiny
from repro.partition import build_numbering
from repro.smoothers import TwoStageGS, make_smoother

VARIANTS = ("optimized", "sparse_add", "general")


def build_problem(seed=0, n=80, E=200, nranks=4, ncons=5):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(E, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    cons = rng.choice(n, size=ncons, replace=False)
    parts = rng.integers(0, nranks, size=n)
    num = build_numbering(parts, nranks)
    w = SimWorld(nranks)
    g = EquationGraph(w, num, GraphSpec(n=n, edges=edges, constraint_rows=cons))
    return rng, w, num, g, edges, cons


def fill_local(w, g, num, edges, cons, value_seed):
    """One Stage-2 fill with values drawn from ``value_seed``."""
    rng = np.random.default_rng(value_seed)
    E = edges.shape[0]
    ge = rng.random(E) + 0.1
    la = LocalAssembler(w, g)
    la.add_edge_matrix(np.stack([ge, -ge, -ge, ge], axis=1))
    la.add_diag(rng.random(g.n) + 1.0)
    la.add_node_rhs(rng.standard_normal(g.n))
    la.add_edge_rhs(rng.standard_normal((E, 2)))
    la.set_constraint_rhs(num.old_to_new[cons], rng.standard_normal(cons.size))
    return la.finalize()


def scalar_system(nranks=3, **overrides):
    """A turbine_tiny scalar-transport system and one Stage-2 fill's
    arguments: ``(world, comp, system, kwargs)``."""
    from repro.core.physics import ScalarTransportSystem

    cfg = SimulationConfig(nranks=nranks, **overrides)
    w = SimWorld(cfg.nranks)
    comp = CompositeMesh(w, make_turbine_tiny(), cfg.partition_method)
    E = comp.edges.shape[0]
    kwargs = dict(
        mdot=np.ones(E),
        scalar=np.full(comp.n, 1e-2),
        scalar_old=np.full(comp.n, 1e-2),
    )
    return w, comp, ScalarTransportSystem(comp, cfg), kwargs


def move_pattern(eq):
    """Move an equation's sparsity pattern for real: one more Dirichlet
    row, a connectivity update (the position store's one reset point, so
    the constraint rows are computed again), then Stage 1."""
    free = np.setdiff1d(np.arange(eq.comp.n), eq.constraint_rows())
    eq.dirichlet = np.union1d(eq.dirichlet, free[:1])
    eq.comp.update_connectivity()
    eq.update_graph()


def assert_matrices_identical(m_fast: ParCSRMatrix, m_cold: ParCSRMatrix):
    """Exact (bitwise) structural + numeric equality of two ParCSR matrices."""
    assert np.array_equal(m_fast.A.indptr, m_cold.A.indptr)
    assert np.array_equal(m_fast.A.indices, m_cold.A.indices)
    assert np.array_equal(m_fast.A.data, m_cold.A.data)
    for bf, bc in zip(m_fast.blocks, m_cold.blocks):
        assert np.array_equal(bf.col_map_offd, bc.col_map_offd)
        for attr in ("diag", "offd"):
            f, c = getattr(bf, attr), getattr(bc, attr)
            assert np.array_equal(f.indptr, c.indptr)
            assert np.array_equal(f.indices, c.indices)
            assert np.array_equal(f.data, c.data)


class TestMatrixFastPath:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_replay_bitwise_equal_to_cold(self, variant):
        """Fast path must reproduce the cold path exactly, per variant."""
        _rng, w, num, g, edges, cons = build_problem(seed=7)
        plan = AssemblyPlan(num, variant, graph=g, name="A")

        local1 = fill_local(w, g, num, edges, cons, value_seed=1)
        am1 = assemble_global_matrix(w, num, local1, variant, plan=plan)
        assert plan.matrix_ready
        assert am1.matrix is plan.matrix

        # New values, same pattern: replay and compare with a cold run.
        local2 = fill_local(w, g, num, edges, cons, value_seed=2)
        am_fast = assemble_global_matrix(w, num, local2, variant, plan=plan)
        am_cold = assemble_global_matrix(w, num, local2, variant)
        assert am_fast.matrix is plan.matrix  # in-place update
        assert am_fast.diag_nnz == am_cold.diag_nnz
        assert am_fast.offd_nnz == am_cold.offd_nnz
        assert_matrices_identical(am_fast.matrix, am_cold.matrix)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_vector_replay_bitwise_equal_to_cold(self, variant):
        _rng, w, num, g, edges, cons = build_problem(seed=13)
        plan = AssemblyPlan(num, variant, graph=g, name="b")

        local1 = fill_local(w, g, num, edges, cons, value_seed=3)
        assemble_global_vector(w, num, local1, variant, plan=plan)
        assert plan.vector_ready

        local2 = fill_local(w, g, num, edges, cons, value_seed=4)
        rhs_fast = assemble_global_vector(w, num, local2, variant, plan=plan)
        rhs_cold = assemble_global_vector(w, num, local2, variant)
        assert np.array_equal(rhs_fast.data, rhs_cold.data)

    def test_replay_over_many_fills(self):
        """Plan stays valid over repeated value updates (Picard loop)."""
        _rng, w, num, g, edges, cons = build_problem(seed=3)
        plan = AssemblyPlan(num, "optimized", graph=g, name="A")
        assemble_global_matrix(
            w, num, fill_local(w, g, num, edges, cons, 0), "optimized",
            plan=plan,
        )
        for k in range(1, 5):
            local = fill_local(w, g, num, edges, cons, k)
            fast = assemble_global_matrix(
                w, num, local, "optimized", plan=plan
            )
            cold = assemble_global_matrix(w, num, local, "optimized")
            assert_matrices_identical(fast.matrix, cold.matrix)

    def test_variant_mismatch_rejected(self):
        _rng, w, num, g, edges, cons = build_problem()
        plan = AssemblyPlan(num, "optimized", graph=g)
        local = fill_local(w, g, num, edges, cons, 0)
        with pytest.raises(ValueError):
            assemble_global_matrix(w, num, local, "general", plan=plan)
        with pytest.raises(ValueError):
            assemble_global_vector(w, num, local, "general", plan=plan)

    def test_plan_telemetry_counters(self):
        _rng, w, num, g, edges, cons = build_problem(seed=21)
        plan = AssemblyPlan(num, "optimized", graph=g, name="A")
        hits = w.metrics.counter("assembly.plan_hits", equation="A")
        rebuilds = w.metrics.counter("assembly.plan_rebuilds", equation="A")
        assemble_global_matrix(
            w, num, fill_local(w, g, num, edges, cons, 0), "optimized",
            plan=plan,
        )
        assert rebuilds.value == 1 and hits.value == 0
        for _ in range(3):
            assemble_global_matrix(
                w, num, fill_local(w, g, num, edges, cons, 1), "optimized",
                plan=plan,
            )
        assert rebuilds.value == 1 and hits.value == 3


class TestUpdateRankValues:
    def test_pattern_frozen_value_update(self):
        _rng, w, num, g, edges, cons = build_problem(seed=5)
        local = fill_local(w, g, num, edges, cons, 0)
        am = assemble_global_matrix(w, num, local, "optimized")
        M = am.matrix
        # Doubling every rank's values must equal doubling the CSR.
        ref = 2.0 * M.A.toarray()
        for r in range(num.nranks):
            s = M.A.indptr[M.row_offsets[r]]
            e = M.A.indptr[M.row_offsets[r + 1]]
            M.update_rank_values(r, 2.0 * M.A.data[s:e])
        assert np.array_equal(M.A.toarray(), ref)
        for r, b in enumerate(M.blocks):
            lo, hi = M.row_offsets[r], M.row_offsets[r + 1]
            clo, chi = M.col_offsets[r], M.col_offsets[r + 1]
            assert np.array_equal(
                b.diag.toarray(), ref[lo:hi, clo:chi]
            )

    def test_wrong_size_rejected(self):
        _rng, w, num, g, edges, cons = build_problem(seed=5)
        am = assemble_global_matrix(
            w, num, fill_local(w, g, num, edges, cons, 0), "optimized"
        )
        with pytest.raises(ValueError):
            am.matrix.update_rank_values(0, np.zeros(3))


class TestGraphRevision:
    def test_rebuild_bumps_revision(self):
        _rng, w, num, g, edges, cons = build_problem(seed=9)
        g2 = EquationGraph(
            w, num, GraphSpec(n=g.n, edges=edges, constraint_rows=cons)
        )
        assert g2.revision > g.revision

    def test_mesh_motion_invalidates_plan(self):
        """A moved pattern rebuilds the graph and forces a plan recapture."""
        w, _comp, scal, kwargs = scalar_system()
        scal.assemble(**kwargs)
        plan1 = scal._plan
        assert plan1 is not None and plan1.matrix_ready
        scal.assemble(**kwargs)
        assert scal._plan is plan1  # unchanged graph: same plan, fast path
        hits = w.metrics.counter("assembly.plan_hits", equation="scalar")
        assert hits.value == 1

        move_pattern(scal)  # one more constraint row: Stage 1 rebuilds
        scal.assemble(**kwargs)
        assert scal._plan is not plan1  # stale revision dropped
        assert scal._plan.graph_revision == scal.graph.revision
        rebuilds = w.metrics.counter(
            "assembly.plan_rebuilds", equation="scalar"
        )
        assert rebuilds.value == 2

    def test_unchanged_spec_keeps_graph_plan_and_assembler(self):
        """Stage 1 on a recomputed but equal connectivity keeps the graph,
        its revision and assembler, and the plan replays."""
        w, comp, scal, kwargs = scalar_system()
        scal.assemble(**kwargs)
        graph, plan, asm = scal.graph, scal._plan, scal.assembler
        revision = graph.revision
        comp.update_connectivity()  # fresh arrays, the same pattern
        scal.update_graph()
        assert scal.graph is graph and graph.revision == revision
        assert scal.assembler is asm and any(asm.held())
        scal.assemble(**kwargs)
        assert scal._plan is plan
        hits = w.metrics.counter("assembly.plan_hits", equation="scalar")
        assert hits.value == 1

    @pytest.mark.parametrize("moved", ["edges", "constraint_rows"])
    def test_a_moved_spec_gives_a_new_revision(self, moved):
        _w, comp, scal, _kwargs = scalar_system()
        scal.update_graph()
        graph, asm = scal.graph, scal.assembler
        if moved == "edges":
            comp.edges = comp.edges[:-1]
            scal.update_graph()
        else:
            move_pattern(scal)
        assert scal.graph is not graph
        assert scal.graph.revision > graph.revision
        assert scal.assembler is not asm and not any(asm.held())

    def test_reuse_disabled_no_plan(self):
        _w, _comp, scal, kwargs = scalar_system(
            nranks=2, reuse_assembly_plan=False
        )
        scal.assemble(**kwargs)
        assert scal._plan is None


class TestAMGRefresh:
    def _poisson(self, w, n=96, nranks=4):
        rng = np.random.default_rng(11)
        from scipy import sparse

        main = 2.0 * np.ones(n)
        off = -1.0 * np.ones(n - 1)
        A = sparse.diags([off, main, off], [-1, 0, 1]).tocsr()
        offsets = np.linspace(0, n, nranks + 1).astype(np.int64)
        return ParCSRMatrix(w, A, offsets)

    def test_refresh_is_linear_in_fine_values(self):
        """Frozen P/R makes RAP linear: scaling A_0 scales every level."""
        w = SimWorld(4)
        M = self._poisson(w)
        h = AMGHierarchy(M, AMGOptions(agg_levels=0, interp="direct"))
        before = [lvl.A.A.toarray().copy() for lvl in h.levels]
        assert len(h.levels) >= 2

        M.refresh_values(2.0 * M.A)
        h.refresh()
        for lvl, ref in zip(h.levels, before):
            assert np.allclose(lvl.A.A.toarray(), 2.0 * ref, atol=1e-12)
        assert w.metrics.counter("amg.refresh_count").value == 1

    def test_refresh_same_values_is_identity(self):
        w = SimWorld(2)
        M = self._poisson(w, n=64, nranks=2)
        h = AMGHierarchy(M, AMGOptions(agg_levels=0, interp="direct"))
        before = [lvl.A.A.toarray().copy() for lvl in h.levels]
        h.refresh()
        for lvl, ref in zip(h.levels, before):
            assert np.allclose(lvl.A.A.toarray(), ref, atol=1e-12)

    def test_refresh_rejects_pattern_change(self):
        w = SimWorld(2)
        M = self._poisson(w, n=64, nranks=2)
        h = AMGHierarchy(M, AMGOptions(agg_levels=0, interp="direct"))
        other = self._poisson(w, n=32, nranks=2)
        with pytest.raises(ValueError):
            h.refresh(other)

    def test_refresh_on_pressure_hierarchy_keeps_every_pattern(
        self, assemble_tiny_pressure
    ):
        """refresh_values compares indptr and indices, so this passes only
        if every refreshed Galerkin product has exactly the pattern its
        level was set up with."""
        _w, A, _rhs = assemble_tiny_pressure(3)
        h = AMGHierarchy(A)
        assert len(h.levels) >= 3
        before = [lvl.A.A.copy() for lvl in h.levels]
        h.refresh()
        for lvl, ref in zip(h.levels, before):
            assert np.array_equal(lvl.A.A.indptr, ref.indptr)
            assert np.array_equal(lvl.A.A.indices, ref.indices)
            assert np.allclose(lvl.A.A.data, ref.data, rtol=1e-12, atol=1e-12)

    def test_pressure_system_refresh_between_rebuilds(self):
        """The rule, one branch at a time, with a bound of 3 solves per
        set-up: new values -> refresh, same operator -> reuse, bound
        reached -> set up."""
        cfg = SimulationConfig(nranks=2, precond_rebuild_every=3)
        w = SimWorld(cfg.nranks)
        comp = CompositeMesh(w, make_turbine_tiny(), cfg.partition_method)
        from repro.core.physics import PressurePoissonSystem

        pres = PressurePoissonSystem(comp, cfg)
        E = comp.edges.shape[0]
        kwargs = dict(
            mdot=np.zeros(E),
            pressure_correction_bc=np.zeros(comp.n),
        )
        counts = lambda: (  # noqa: E731
            w.metrics.counter("amg.setups").value,
            w.metrics.counter("amg.refresh_count").value,
        )
        A, b = pres.assemble(**kwargs)
        pres.solve(A, b)
        assert counts() == (1, 0)
        A, b = pres.assemble(**kwargs)
        pres.solve(A, b)  # values moved, pattern did not: numeric refresh
        assert counts() == (1, 1)
        precond = pres._precond
        pres.solve(A, b)  # the same operator again: reuse as is
        assert counts() == (1, 1) and pres._precond is precond
        A, b = pres.assemble(**kwargs)
        pres.solve(A, b)  # one set-up has served its 3 solves
        assert counts() == (2, 1)
        move_pattern(pres)  # the pattern moved
        A, b = pres.assemble(**kwargs)
        pres.solve(A, b)
        assert counts() == (3, 1)

    def test_refresh_absorbs_a_planted_cancellation(self, monkeypatch):
        """scipy's ``@`` omits entries that cancel to exactly 0.  Whether
        a run hits such a cancellation is a matter of roundoff, so one is
        planted: the first Galerkin product of the refresh before
        pressure solve 10 (the third of the last step) comes back with an
        entry missing.  The level's pattern is structural, so the entry
        is stored as a zero and nothing else happens: set-ups only where
        a step opens."""
        import importlib

        from repro.core import NaluWindSimulation

        # ``repro.linalg.spgemm`` the attribute is the function.
        spgemm_mod = importlib.import_module("repro.linalg.spgemm")
        cfg = SimulationConfig.from_dict(
            {"nranks": 2, "picard_iterations": 4, "precond_rebuild_every": 4}
        )
        sim = NaluWindSimulation("turbine_tiny", cfg)
        solves_done = lambda: len(sim.pressure.solve_records)  # noqa: E731
        real = spgemm_mod.values_on_pattern
        planted = []

        def cancelling(pattern, C):
            if solves_done() == 10 and not planted:
                planted.append((pattern.nnz, C.nnz))
                assert C.indices[1] != 0  # off the diagonal
                C.data[1] = 0.0
                C.eliminate_zeros()
            return real(pattern, C)

        monkeypatch.setattr(spgemm_mod, "values_on_pattern", cancelling)
        setups, absorbed = [], []
        sim.world.hub.subscribe(
            "amg_setup",
            lambda **_kw: setups.append((sim.world.phase, solves_done())),
        )

        def on_refresh(hierarchy, **_kw):
            if solves_done() == 10:
                A1 = hierarchy.levels[1].A
                absorbed.append((A1.nnz, float(A1.A.data[1])))

        sim.world.hub.subscribe("amg_refresh", on_refresh)
        report = sim.run(3)
        assert len(report.step_snapshots) == 3
        (pattern_nnz, product_nnz), = planted
        assert absorbed == [(pattern_nnz, 0.0)]
        assert product_nnz <= pattern_nnz
        assert setups == [("pressure/precond_setup", k) for k in (0, 4, 8)]
        assert sim.world.metrics.counter_total("amg.refresh_count") == 9
        assert all(r.converged for r in sim.pressure.solve_records)


class TestPreconditionerRule:
    """Set up / refresh / reuse, from the operator's pattern and values."""

    @staticmethod
    def _run(steps=2, **overrides):
        from repro.core import NaluWindSimulation

        cfg = SimulationConfig.from_dict(
            {"nranks": 2, "picard_iterations": 4, **overrides}
        )
        sim = NaluWindSimulation("turbine_tiny", cfg)
        events = []
        for name in ("amg_setup", "amg_refresh"):
            sim.world.hub.subscribe(
                name, lambda _n=name, **_kw: events.append(_n)
            )
        builds = {}
        for eq in sim.systems:
            builds[eq.name] = 0

            def counted(A, _eq=eq, _make=eq.make_preconditioner):
                builds[_eq.name] += 1
                return _make(A)

            eq.make_preconditioner = counted
        sim.run(steps)
        return sim, events, builds

    def test_default_one_setup_per_step_then_refreshes(self):
        """The two start-up steps each set up on their own operator."""
        sim, events, builds = self._run()
        per_step = ["amg_setup"] + 3 * ["amg_refresh"]
        assert events == 2 * per_step
        # One smoother per Picard iteration serves the three momentum
        # components; the scalar system solves once per iteration.
        assert builds == {"momentum": 8, "pressure": 2, "scalar": 8}
        assert len(sim.momentum.solve_records) == 24
        for eq in sim.systems:
            assert all(r.converged for r in eq.solve_records)

    def test_start_up_steps_keep_the_graph_and_plan(self):
        """A start-up step ends only the preconditioner: the hierarchy is
        set up at steps 0, 1 and 2 on one graph revision and one plan per
        equation, which step 3 then replays and refreshes on."""
        from repro.core import NaluWindSimulation

        sim = NaluWindSimulation(
            "turbine_tiny", SimulationConfig(nranks=2, picard_iterations=1)
        )
        setups = []
        sim.world.hub.subscribe(
            "amg_setup", lambda **_kw: setups.append(sim.step_index)
        )
        seen = []
        for _ in range(4):
            assert sim.step()
            seen.append([(eq.graph.revision, eq._plan) for eq in sim.systems])
        sim.close()
        assert all(s == seen[0] for s in seen)
        assert setups == [0, 1, 2]
        for eq in sim.systems:
            rebuilds = sim.world.metrics.counter(
                "assembly.plan_rebuilds", equation=eq.name
            )
            assert rebuilds.value == 1

    def test_start_up_steps_set_up_then_one_setup_serves_across_steps(self):
        """Steps 1 and 2 (``START_UP_STEPS``) each set up on their own
        operator; turbine_tiny's pattern then holds, so the set-up of step
        3 serves steps 3 and 4: 8 solves."""
        sim, events, builds = self._run(steps=4)
        per_step = ["amg_setup"] + 3 * ["amg_refresh"]
        assert events == 3 * per_step + 4 * ["amg_refresh"]
        # One smoother per Picard iteration serves the three momentum
        # components; the scalar system solves once per iteration.
        assert builds == {"momentum": 16, "pressure": 3, "scalar": 16}
        assert len(sim.momentum.solve_records) == 48
        for eq in sim.systems:
            assert all(r.converged for r in eq.solve_records)

    @pytest.mark.parametrize(
        "overrides",
        [{"precond_rebuild_every": 1}, {"amg_refresh": False}],
        ids=["bound_1", "amg_refresh_off"],
    )
    def test_bound_one_sets_up_at_every_solve(self, overrides):
        _sim, events, builds = self._run(steps=1, **overrides)
        assert events == 4 * ["amg_setup"]
        assert builds == {"momentum": 12, "pressure": 4, "scalar": 4}

    def test_bound_caps_the_solves_one_setup_serves(self):
        _sim, events, builds = self._run(
            steps=1, picard_iterations=5, precond_rebuild_every=2
        )
        assert events == [
            "amg_setup", "amg_refresh", "amg_setup", "amg_refresh",
            "amg_setup",
        ]
        assert builds["pressure"] == 3

    def test_pressure_iterations_stay_near_the_per_solve_cadence(self):
        """Refreshed hierarchies keep the interpolation of the operator
        they were set up on.  That costs iterations while the start-up
        transient moves the operator between Picard iterations (steps 1
        and 2: up to +12 %) and nothing once it settles (steps 3 and 4
        share the set-up of step 3)."""
        per_step = {}
        for bound in (1, 12):
            sim, _events, _builds = self._run(
                steps=4, precond_rebuild_every=bound
            )
            assert all(r.converged for r in sim.pressure.solve_records)
            its = [r.iterations for r in sim.pressure.solve_records]
            per_step[bound] = [sum(its[k : k + 4]) for k in range(0, 16, 4)]
        assert sum(per_step[12]) <= 1.10 * sum(per_step[1])
        for refreshed, fresh in zip(per_step[12], per_step[1]):
            assert refreshed <= 1.20 * fresh
        assert per_step[12][-1] <= 1.10 * per_step[1][-1]

    def test_one_setup_serves_across_steps_up_to_its_bound(self):
        """tiny_r2_motion's shape without checkpoints: 20 one-Picard steps
        on one pattern, set up at steps 1 and 2 (start-up), 3 and 15, and
        refreshed for the other 16.  Pressure iterations: 254
        (OMP_NUM_THREADS=1) against 252 with a set-up per solve."""
        from repro.core import NaluWindSimulation

        sim = NaluWindSimulation(
            "turbine_tiny", SimulationConfig(nranks=2, picard_iterations=1)
        )
        report = sim.run(20)
        m = sim.world.metrics
        assert m.counter_total("amg.setups") == 4
        assert m.counter_total("amg.refresh_count") == 16
        assert all(r.converged for r in sim.pressure.solve_records)
        assert sum(report.solve_iterations["pressure"]) <= 290

    def test_a_rewind_rebuilds_the_graph_and_sets_up(self):
        """set_state ends the lifetime of every graph, plan and
        preconditioner: the next step rebuilds them as a process
        restarted from that state does."""
        from repro.core import NaluWindSimulation

        sim = NaluWindSimulation(
            "turbine_tiny", SimulationConfig(nranks=2, picard_iterations=1)
        )
        setups = lambda: sim.world.metrics.counter_total(  # noqa: E731
            "amg.setups"
        )
        sim.run(3)  # past the start-up steps
        revision = sim.pressure.graph.revision
        sim.run(1)
        assert setups() == 3 and sim.pressure.graph.revision == revision
        sim.set_state(*sim.state())
        sim.run(1)
        assert setups() == 4 and sim.pressure.graph.revision > revision


class TestKrylovAPI:
    def _system(self):
        w = SimWorld(2)
        from scipy import sparse

        n = 40
        A = sparse.diags(
            [-np.ones(n - 1), 3.0 * np.ones(n), -np.ones(n - 1)],
            [-1, 0, 1],
        ).tocsr()
        offsets = np.array([0, n // 2, n], dtype=np.int64)
        M = ParCSRMatrix(w, A, offsets)
        b = M.new_vector(np.ones(n))
        return M, b

    def test_factory_dispatches_gmres_and_cg(self):
        M, b = self._system()
        cfg_g = SimulationConfig().momentum_solver
        solver = make_krylov_solver(M, None, cfg_g)
        assert isinstance(solver, GMRES)
        res = solver.solve(b)
        assert isinstance(res, KrylovResult)
        assert res.method == "gmres" and res.converged

        cfg_c = SimulationConfig().pressure_solver
        cfg_c.method = "cg"
        solver = make_krylov_solver(M, None, cfg_c)
        assert isinstance(solver, CG)
        res = solver.solve(b)
        assert res.method == "cg" and res.converged

    def test_unknown_method_rejected(self):
        M, b = self._system()

        class Cfg:
            method = "bicgstab"

        with pytest.raises(ValueError):
            make_krylov_solver(M, None, Cfg())

    def test_config_validates_method(self):
        cfg = SimulationConfig()
        cfg.pressure_solver.method = "bogus"
        with pytest.raises(ValueError):
            cfg.validate()

    def test_config_validates_reuse_toggles(self):
        cfg = SimulationConfig(precond_rebuild_every=0)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_removed_result_aliases_raise(self):
        import repro.krylov as krylov

        with pytest.raises(AttributeError):
            krylov.GMRESResult
        with pytest.raises(AttributeError):
            krylov.CGResult
        assert "GMRESResult" not in krylov.__all__
        assert "CGResult" not in krylov.__all__


class TestSmootherFactory:
    def _matrix(self):
        w = SimWorld(2)
        from scipy import sparse

        n = 24
        A = sparse.diags(
            [-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)],
            [-1, 0, 1],
        ).tocsr()
        return ParCSRMatrix(w, A, np.array([0, n // 2, n], dtype=np.int64))

    def test_registry_builds_every_name(self):
        from repro.smoothers import SMOOTHER_NAMES

        M = self._matrix()
        b = M.new_vector(np.ones(M.shape[0]))
        for name in SMOOTHER_NAMES:
            sm = make_smoother(name, M)
            z = sm.apply(b)
            assert np.all(np.isfinite(z.data))

    def test_sgs2_factory_defaults(self):
        M = self._matrix()
        sm = make_smoother("sgs2", M)
        assert isinstance(sm, TwoStageGS)
        assert sm.symmetric and sm.inner_sweeps == 2 and sm.outer_sweeps == 2

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_smoother("ilu", self._matrix())
        # Unknown options too, the keyword an entry fixes among them.
        with pytest.raises(TypeError):
            make_smoother("jacobi", self._matrix(), degree=2)
        with pytest.raises(TypeError):
            make_smoother("sgs2", self._matrix(), symmetric=False)
        with pytest.raises(TypeError):
            make_smoother("chebyshev", self._matrix(), overlap=True)
