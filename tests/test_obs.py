"""Tests for the unified telemetry layer (repro.obs)."""

import importlib.util
import json
import os

import numpy as np
import pytest

from repro.__main__ import main
from repro.comm import SimWorld
from repro.core import NaluWindSimulation, SimulationConfig
from repro.obs import (
    MetricsRegistry,
    ObserverHub,
    RunTelemetry,
    Span,
    Tracer,
    collect_run_telemetry,
    render_flat_report,
    render_span_tree,
)


class FakeClock:
    """Deterministic monotone clock."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


@pytest.fixture(scope="module")
def tiny_run():
    """One-step turbine_tiny run shared by the integration tests."""
    cfg = SimulationConfig(nranks=2)
    sim = NaluWindSimulation("turbine_tiny", cfg)
    report = sim.run(1)
    return sim, report


class TestTracer:
    def test_nesting_structure(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("a"):
            with tr.span("b"):
                with tr.span("c"):
                    pass
            with tr.span("b"):
                pass
        assert [r.name for r in tr.roots] == ["a"]
        a = tr.roots[0]
        assert [c.name for c in a.children] == ["b", "b"]
        assert [c.name for c in a.children[0].children] == ["c"]
        assert tr.counts() == {"a": 1, "b": 2, "c": 1}

    def test_current_and_depth(self):
        tr = Tracer(clock=FakeClock())
        assert tr.current is None
        with tr.span("outer"):
            assert tr.current.name == "outer"
            assert tr.depth == 1
            with tr.span("inner"):
                assert tr.current.name == "inner"
                assert tr.depth == 2
        assert tr.current is None and tr.depth == 0

    def test_timing_monotonicity(self):
        """Children start after the parent, end before it, and their
        durations sum to no more than the parent's."""
        tr = Tracer(clock=FakeClock())
        with tr.span("p"):
            with tr.span("c1"):
                pass
            with tr.span("c2"):
                pass
        for _d, s in tr.walk():
            assert s.duration >= 0.0
            for c in s.children:
                assert c.start >= s.start
                assert c.end <= s.end
            assert sum(c.duration for c in s.children) <= s.duration
            assert s.self_time() >= 0.0

    def test_totals_accumulate_across_roots(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("x"):
            pass
        with tr.span("x"):
            pass
        assert tr.counts()["x"] == 2
        assert tr.totals()["x"] > 0.0
        assert len(tr.find("x")) == 2

    def test_span_dict_roundtrip(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("root", kind="test"):
            with tr.span("leaf"):
                pass
        d = tr.to_dicts()
        back = Span.from_dict(d[0])
        assert back.name == "root"
        assert back.attrs == {"kind": "test"}
        assert back.children[0].name == "leaf"
        assert back.to_dict() == d[0]

    def test_exception_closes_span(self):
        tr = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tr.span("boom"):
                raise ValueError("x")
        assert tr.depth == 0
        assert tr.roots[0].duration > 0.0


class TestPhaseScope:
    def test_balanced_scopes_ok(self):
        w = SimWorld(2)
        with w.phase_scope("a"):
            with w.phase_scope("b"):
                assert w.phase == "b"
            assert w.phase == "a"
        assert w.phase == "default"

    def test_pop_from_empty_raises(self):
        w = SimWorld(2)
        with pytest.raises(RuntimeError, match="underflow"):
            w._pop_phase("anything")

    def test_mismatched_pop_raises(self):
        w = SimWorld(2)
        cm = w.phase_scope("outer")
        cm.__enter__()
        # Simulate stack corruption by an errant observer.
        w._phase_stack.append("stray")
        with pytest.raises(RuntimeError, match="unbalanced"):
            cm.__exit__(None, None, None)


GOLDEN = os.path.join(
    os.path.dirname(__file__), "data", "phase_boundary_golden.json"
)


class TestPhaseBoundary:
    """``SimWorld.phase_scope`` attributes, spans and times a phase."""

    def fake_world(self):
        w = SimWorld(2)
        w.tracer = Tracer(clock=FakeClock())
        return w

    def test_scope_span_is_the_stage_dt(self):
        w = self.fake_world()
        with w.marked_span("step", index=0):
            for _ in range(3):
                with w.phase_scope("eq/solve") as span:
                    assert w.phase == "eq/solve"
        # Spans nest under "step"; the flat record is their durations.
        spans = w.tracer.find("eq/solve")
        assert w.tracer.roots[0].children == spans and spans[-1] is span
        assert w.phase_wall == {
            "eq/solve": {
                "total_s": sum(s.duration for s in spans),
                "count": 3,
            }
        }
        assert w.tracer.totals()["eq/solve"] == 3.0
        assert w.tracer.counts() == {"step": 1, "eq/solve": 3}

    def test_exception_closes_span_and_counts_once(self):
        w = self.fake_world()
        with pytest.raises(RuntimeError, match="boom"):
            with w.phase_scope("x") as span:
                raise RuntimeError("boom")
        assert w._phase_stack == ["default"]
        assert w.tracer.depth == 0
        assert span.duration == 1.0
        assert w.phase_wall == {"x": {"total_s": 1.0, "count": 1}}

    def test_fake_clock_forest_matches_parent_golden(self):
        """Span forest and ``phases`` of turbine_tiny @2 ranks x 2 steps,
        recorded before the phase boundary moved into ``SimWorld``: the
        same clock reads per span, so the match is exact."""
        cfg = SimulationConfig(nranks=2, clock=FakeClock())
        report = NaluWindSimulation("turbine_tiny", cfg).run(2)
        t = report.telemetry
        rows = [
            [depth, s.name, s.attrs, s.start, s.duration]
            for root in t.spans
            for depth, s in Span.from_dict(root).walk()
        ]
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        assert rows == golden["spans"]
        assert t.phases == golden["phases"]
        assert report.wall_times == {
            label: wall["total_s"] for label, wall in t.phases.items()
        }

    def test_step_span_index_follows_step_index(self, tmp_path):
        """After a cold restart the ``step`` span carries the global step
        index, like the profiler marker and the ``step_complete`` event."""
        ckpt = str(tmp_path / "ckpt")
        base = dict(nranks=2, picard_iterations=1, checkpoint_dir=ckpt)
        NaluWindSimulation(
            "turbine_tiny", SimulationConfig(checkpoint_every=1, **base)
        ).run(2)
        sim = NaluWindSimulation(
            "turbine_tiny",
            SimulationConfig(restart_from=ckpt, profile=True, **base),
        )
        completed = []
        sim.world.hub.subscribe(
            "step_complete", lambda step, **_kw: completed.append(step)
        )
        sim.run(3)
        assert [s.attrs for s in sim.tracer.find("step")] == [{"index": 2}]
        assert [
            attrs for _t, name, attrs in sim.world.profiler.markers
            if name == "step"
        ] == [{"index": 2}]
        assert completed == [3]


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.0)
        reg.gauge("g").set(7.5)
        h = reg.histogram("h")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert reg.counter("c").value == 3.0
        assert reg.gauge("g").value == 7.5
        assert h.count == 3 and h.mean == pytest.approx(2.0)
        assert h.min == 1.0 and h.max == 3.0

    def test_labels_distinguish_instruments(self):
        reg = MetricsRegistry()
        reg.counter("solve.count", equation="pressure").inc()
        reg.counter("solve.count", equation="momentum").inc(4)
        assert reg.counter("solve.count", equation="pressure").value == 1
        assert reg.counter_total("solve.count") == 5
        d = reg.as_dict()
        assert d["counters"]["solve.count{equation=momentum}"] == 4

    def test_negative_counter_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1.0)

    def test_merge_across_simulated_ranks(self):
        """Per-rank registries reduce like an MPI allreduce: counters and
        histograms sum, gauges keep the latest written value."""
        ranks = []
        for r in range(4):
            reg = MetricsRegistry()
            reg.counter("msgs").inc(10 * (r + 1))
            reg.histogram("iters").observe(float(r))
            reg.gauge("levels").set(5 + r)
            ranks.append(reg)
        total = MetricsRegistry()
        for reg in ranks:
            total.merge(reg)
        assert total.counter("msgs").value == 10 + 20 + 30 + 40
        h = total.histogram("iters")
        assert h.count == 4 and h.min == 0.0 and h.max == 3.0
        assert total.gauge("levels").value == 8  # last writer wins

    def test_merge_returns_self_and_chains(self):
        a, b, c = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        b.counter("x").inc()
        c.counter("x").inc()
        assert a.merge(b).merge(c).counter("x").value == 2


class TestObserverHub:
    def test_subscribe_emit_unsubscribe(self):
        hub = ObserverHub()
        seen = []
        off = hub.subscribe("ev", lambda **kw: seen.append(kw))
        assert hub.has("ev")
        hub.emit("ev", a=1)
        off()
        hub.emit("ev", a=2)
        assert seen == [{"a": 1}]
        assert not hub.has("ev")

    def test_emit_without_observers_is_noop(self):
        hub = ObserverHub()
        hub.emit("nobody", x=1)  # must not raise

    def test_p2p_events_itemize_what_the_traffic_log_sums(self):
        """A halo round is one summary record in the traffic log, but an
        ``exchange`` observer still sees one ``p2p`` event per
        transmission (injected duplicates included), carrying the same
        sources and bytes the log aggregates."""
        from scipy import sparse

        from repro.linalg import ParCSRMatrix
        from repro.resilience import FaultInjector, FaultSpec

        n, nranks = 60, 4
        A = sparse.random(n, n, density=0.2, random_state=2, format="csr")
        w = SimWorld(nranks)
        M = ParCSRMatrix(
            w, A + sparse.eye(n), np.linspace(0, n, nranks + 1).astype(int)
        )
        w.fault_injector = FaultInjector((FaultSpec("message_duplicate", at=1),))
        events = []
        off = w.hub.subscribe("exchange", lambda **kw: events.append(kw))
        x = M.new_vector(np.ones(n))
        with w.phase_scope("observed"):
            M.matvec(x)
            M.matvec(x, overlap=True)
            w.comm(0).send(1, np.ones(3))
            w.comm(1).recv(0)
        off()
        with w.phase_scope("unobserved"):
            M.matvec(x)

        p2p = [e for e in events if e["kind"] == "p2p"]
        assert len(p2p) == w.traffic.message_count("observed")
        assert len(p2p) == 2 * M.pattern.total_messages() + 1 + 1
        assert sum(e["nbytes"] for e in p2p) == w.traffic.message_bytes("observed")
        assert {e["phase"] for e in p2p} == {"observed"}
        per_src = {}
        for e in p2p:
            per_src[e["src"]] = per_src.get(e["src"], 0) + 1
        assert max(per_src.values()) == w.traffic.max_rank_messages("observed")
        assert (
            w.traffic.message_count("unobserved")
            == M.pattern.total_messages()
        )

    def test_solve_and_amg_hooks_fire_during_simulation(self):
        cfg = SimulationConfig(nranks=2)
        sim = NaluWindSimulation("turbine_tiny", cfg)
        solves = []
        amg = []
        exchanges = []
        sim.world.hub.subscribe(
            "solve", lambda equation, record, **_: solves.append(equation)
        )
        for event in ("amg_setup", "amg_refresh"):
            sim.world.hub.subscribe(
                event, lambda stats, **_: amg.append(stats)
            )
        off = sim.world.hub.subscribe(
            "exchange", lambda kind, **_: exchanges.append(kind)
        )
        sim.step()
        off()
        n_solves = sum(len(eq.solve_records) for eq in sim.systems)
        assert len(solves) == n_solves
        # Every pressure solve gets a hierarchy current for its operator:
        # one set-up, then numeric refreshes.
        assert len(amg) == len(sim.pressure.solve_records)
        assert amg[0].num_levels >= 2
        assert "allreduce" in exchanges


class TestRunTelemetry:
    def test_json_roundtrip(self, tiny_run):
        _sim, report = tiny_run
        t = report.telemetry
        assert t is not None
        back = RunTelemetry.from_json(t.to_json())
        assert back.to_dict() == t.to_dict()

    def test_schema_rejected_on_mismatch(self):
        with pytest.raises(ValueError, match="schema"):
            RunTelemetry.from_dict({"schema": "bogus/9"})

    def test_phase_totals_match_phase_timers(self, tiny_run):
        """``phases`` is the world's per-phase wall record: every phase
        span summed, the step/picard structure spans left out."""
        sim, report = tiny_run
        t = report.telemetry
        assert t.phases == sim.world.phase_wall
        totals, counts = sim.tracer.totals(), sim.tracer.counts()
        assert set(totals) - set(t.phases) == {"step", "picard"}
        for name, st in t.phases.items():
            assert st["total_s"] == pytest.approx(totals[name])
            assert st["count"] == counts[name]
        assert report.wall_times == {
            name: st["total_s"] for name, st in t.phases.items()
        }
        assert t.phase_total("pressure/solve") > 0.0

    def test_traffic_matches_traffic_log(self, tiny_run):
        sim, report = tiny_run
        tr = report.telemetry.traffic
        log = sim.world.traffic
        # Totals are logical message counts, consistent with the per-rank
        # and per-phase aggregates (bulk records expanded).
        assert tr["total_message_bytes"] == log.message_bytes()
        per_rank = log.rank_totals()
        assert set(tr["per_rank"]) == {"0", "1"}
        for r, d in per_rank.items():
            assert tr["per_rank"][str(r)]["messages"] == d["messages"]
            assert tr["per_rank"][str(r)]["bytes"] == d["bytes"]
        assert tr["total_messages"] == sum(
            v["messages"] for v in tr["per_rank"].values()
        )
        for ph in log.phases():
            assert tr["per_phase"][ph]["messages"] == log.message_count(ph)
            assert tr["per_phase"][ph]["message_bytes"] == log.message_bytes(
                ph
            )

    def test_solver_histories_present(self, tiny_run):
        _sim, report = tiny_run
        t = report.telemetry
        for eq in ("momentum", "pressure", "scalar"):
            s = t.solves[eq]
            assert len(s["iterations"]) == len(s["residual_histories"])
            assert all(len(h) >= 1 for h in s["residual_histories"])
            # History tail matches the relative final norm direction:
            # every entry is a positive relative residual.
            assert all(v >= 0.0 for h in s["residual_histories"] for v in h)
        assert t.mean_iterations("pressure") > 0.0

    def test_amg_complexities_per_level(self, tiny_run):
        _sim, report = tiny_run
        setups = report.telemetry.amg_setups
        assert setups, "pressure AMG setups must be recorded"
        s = setups[0]
        assert s["num_levels"] == len(s["levels"])
        assert s["grid_complexity"] == pytest.approx(
            sum(l["row_frac"] for l in s["levels"])
        )
        assert s["operator_complexity"] == pytest.approx(
            sum(l["nnz_frac"] for l in s["levels"])
        )
        assert s["levels"][0]["row_frac"] == 1.0

    def test_metrics_snapshot_included(self, tiny_run):
        _sim, report = tiny_run
        m = report.telemetry.metrics
        assert m["counters"]["solve.count{equation=pressure}"] >= 1
        assert m["gauges"]["amg.levels"] >= 2
        assert m["gauges"]["comm.total_messages"] > 0

    def test_spans_nest_under_steps(self, tiny_run):
        _sim, report = tiny_run
        t = report.telemetry
        roots = [Span.from_dict(d) for d in t.spans]
        assert [r.name for r in roots] == ["step"]
        names = {s.name for _d, s in roots[0].walk()}
        assert "picard" in names
        assert "pressure/solve" in names

    def test_renderers(self, tiny_run):
        _sim, report = tiny_run
        t = report.telemetry
        tree = render_span_tree(t)
        assert "step" in tree and "pressure/solve" in tree
        shallow = render_span_tree(t, max_depth=0)
        assert "pressure/solve" not in shallow
        flat = render_flat_report(t)
        assert "mean iters" in flat and "operator complexity" in flat

    def test_collect_without_report(self, tiny_run):
        sim, report = tiny_run
        t2 = collect_run_telemetry(sim)
        assert t2.n_steps == report.n_steps
        assert t2.phases == report.telemetry.phases


class TestRecordHistoryFlag:
    def test_gmres_history_disabled(self, tiny_run):
        sim, _report = tiny_run
        from repro.krylov.gmres import GMRES
        from repro.linalg.parvector import ParVector

        A = sim.pressure._matrix
        b = A.matvec(
            ParVector(sim.world, A.row_offsets, np.ones(A.shape[0]))
        )
        res_on = GMRES(A, tol=1e-8, max_iters=20).solve(b)
        res_off = GMRES(
            A, tol=1e-8, max_iters=20, record_history=False
        ).solve(b)
        assert len(res_on.residual_history) >= res_on.iterations
        assert res_off.residual_history == []
        assert res_off.iterations == res_on.iterations
        assert res_off.residual_norm == pytest.approx(res_on.residual_norm)

    def test_solve_records_carry_history(self, tiny_run):
        sim, _report = tiny_run
        rec = sim.pressure.solve_records[0]
        assert len(rec.residual_history) >= rec.iterations

    def test_config_flag_disables_record_history(self):
        cfg = SimulationConfig(nranks=2)
        cfg.momentum_solver.record_history = False
        cfg.pressure_solver.record_history = False
        cfg.scalar_solver.record_history = False
        sim = NaluWindSimulation("turbine_tiny", cfg)
        sim.step()
        for eq in sim.systems:
            assert all(r.residual_history == [] for r in eq.solve_records)


class TestTraceCLI:
    def test_trace_emits_valid_json(self, capsys):
        rc = main(
            ["trace", "turbine_tiny", "--steps", "1", "--ranks", "2"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.telemetry/1"
        assert doc["workload"] == "turbine_tiny"
        assert doc["nranks"] == 2
        # The acceptance-criteria payload sections all present.
        assert doc["spans"] and doc["phases"] and doc["solves"]
        assert doc["traffic"]["per_rank"]
        assert doc["amg_setups"][0]["operator_complexity"] > 1.0
        # Round-trips through the dataclass.
        t = RunTelemetry.from_dict(doc)
        assert json.loads(t.to_json()) == doc

    def test_trace_output_file(self, tmp_path):
        out = tmp_path / "t.json"
        rc = main(
            [
                "trace", "turbine_tiny", "--steps", "1", "--ranks", "2",
                "--output", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.telemetry/1"

    def test_trace_tree_format(self, capsys):
        rc = main(
            [
                "trace", "turbine_tiny", "--steps", "1", "--ranks", "2",
                "--format", "tree", "--max-depth", "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "span tree" in out and "step" in out


def _load_checker():
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "benchmarks",
        "check_telemetry_regression.py",
    )
    spec = importlib.util.spec_from_file_location("check_telemetry", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestRegressionChecker:
    def test_identical_telemetry_passes(self, tiny_run, tmp_path, capsys):
        _sim, report = tiny_run
        checker = _load_checker()
        p = tmp_path / "base.json"
        p.write_text(report.telemetry.to_json())
        rc = checker.main([str(p), str(p)])
        assert rc == 0
        assert "telemetry OK" in capsys.readouterr().out

    def test_iteration_drift_fails(self, tiny_run, tmp_path, capsys):
        _sim, report = tiny_run
        checker = _load_checker()
        base = tmp_path / "base.json"
        base.write_text(report.telemetry.to_json())
        doc = report.telemetry.to_dict()
        doc["solves"]["pressure"]["iterations"] = [
            i * 3 for i in doc["solves"]["pressure"]["iterations"]
        ]
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(doc))
        rc = checker.main([str(base), str(cur)])
        assert rc == 1
        assert "mean iterations drift" in capsys.readouterr().out

    def test_resilience_drift_fails(self, tiny_run, tmp_path, capsys):
        _sim, report = tiny_run
        checker = _load_checker()
        base = tmp_path / "base.json"
        base.write_text(report.telemetry.to_json())
        doc = report.telemetry.to_dict()
        doc["metrics"]["counters"][
            "resilience.failures{equation=momentum,kind=non_convergence}"
        ] = 1
        doc["resilience"] = {
            "failures": 1,
            "recoveries": {"rollback_restep": 1},
            "events": [],
        }
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(doc))
        rc = checker.main([str(base), str(cur)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "resilience counter" in out
        assert "resilience summary changed" in out

    def test_phase_time_drift_fails(self, tiny_run, tmp_path, capsys):
        _sim, report = tiny_run
        checker = _load_checker()
        base = tmp_path / "base.json"
        base.write_text(report.telemetry.to_json())
        doc = report.telemetry.to_dict()
        for ph in doc["phases"].values():
            ph["total_s"] *= 10.0
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(doc))
        rc = checker.main([str(base), str(cur)])
        assert rc == 1
        assert "wall time drift" in capsys.readouterr().out

    def test_exact_families_catch_any_gauge_change(
        self, tiny_run, tmp_path, capsys
    ):
        """--exact: a one-flop change in a named family fails; the same
        change passes without the flag (gauges are otherwise ungated)."""
        _sim, report = tiny_run
        checker = _load_checker()
        base = tmp_path / "base.json"
        base.write_text(report.telemetry.to_json())
        doc = report.telemetry.to_dict()
        key = next(k for k in doc["metrics"]["gauges"] if k.startswith("ops."))
        doc["metrics"]["gauges"][key] += 1
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(doc))
        assert checker.main([str(base), str(cur)]) == 0
        assert checker.main([str(base), str(cur), "--exact", "comm."]) == 0
        capsys.readouterr()
        rc = checker.main([str(base), str(cur), "--exact", "comm.", "ops."])
        assert rc == 1
        assert f"exact family: gauge {key!r}" in capsys.readouterr().out

    def test_bad_schema_rejected(self, tmp_path):
        checker = _load_checker()
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(SystemExit):
            checker.load(str(p))
