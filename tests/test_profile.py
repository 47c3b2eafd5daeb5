"""Per-rank timeline profiler, the telemetry's profile section, and the
roofline join.

Unit tests drive :class:`~repro.obs.timeline.TimelineProfiler` with a
transparent unit pricer (1 flop = 1 s, 1 byte of p2p = 1 s) so every
expected duration is exact; integration tests run the real simulator
under ``config.profile`` and check the invariants of the run telemetry's
``profile`` section — the per-rank accounting identity, the
critical-path sum, roofline fractions, the comm fraction rising with
rank count, and bitwise stability.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import os

import pytest

from repro.__main__ import main
from repro.core.config import SimulationConfig
from repro.core.simulation import NaluWindSimulation
from repro.obs import (
    RunTelemetry,
    TimelineProfiler,
    render_profile_summary,
    to_chrome_trace,
)
from repro.perf import CostModel, OpRecorder, get_machine, roofline_join
from repro.resilience.policy import recovery_findings


class UnitMachine:
    """Pricing rates of 1 so expected times are the raw work numbers."""

    name = "unit"
    eff_flops = 1.0
    eff_bw = float("inf")
    launch_overhead = 0.0


class UnitPricer:
    """flops -> seconds 1:1; one p2p byte -> one second; collectives free."""

    machine = UnitMachine()
    work_scale = 1.0

    def kernel_time(self, work):
        return float(work.flops)

    def p2p_time(self, n_messages, nbytes):
        return float(nbytes)

    def collective_time(self, count, nbytes, world_size):
        return 0.0


def make_profiler(nranks: int) -> tuple[TimelineProfiler, OpRecorder]:
    ops = OpRecorder()
    return TimelineProfiler(nranks, pricer=UnitPricer(), ops=ops), ops


class TestTimelineUnit:
    def test_compute_flush_prices_tally_deltas(self):
        prof, ops = make_profiler(2)
        ops.record("default", 0, "k", flops=2.0)
        ops.record("default", 1, "k", flops=5.0)
        prof.finalize()
        assert prof.wall_time == 5.0
        # Rank 0: 2 s compute + 3 s terminal wait on rank 1.
        totals = prof.rank_totals()
        assert totals[0]["compute_s"] == 2.0
        assert totals[0]["wait_s"] == 3.0
        assert totals[1]["compute_s"] == 5.0
        assert totals[1]["wait_s"] == 0.0
        for t in totals:
            assert t["accounted_s"] == prof.wall_time

    def test_collective_waits_on_straggler(self):
        prof, ops = make_profiler(3)
        for r, flops in enumerate((1.0, 4.0, 2.0)):
            ops.record("default", r, "k", flops=flops)
        prof.on_collective("allreduce", 8.0)
        # Everyone syncs to rank 1 at t=4 (collective itself free here).
        assert prof.t == [4.0, 4.0, 4.0]
        waits = [s for s in prof.segments[0] if s.kind == "wait"]
        assert len(waits) == 1
        assert waits[0].duration == 3.0
        assert waits[0].extra == 1  # waited on the straggler
        stats = prof.exchange_stats()
        assert stats["allreduce"]["count"] == 1.0
        assert stats["allreduce"]["wait_s"] == 3.0 + 0.0 + 2.0

    def test_halo_waits_only_on_senders(self):
        prof, ops = make_profiler(3)
        for r, flops in enumerate((1.0, 9.0, 3.0)):
            ops.record("default", r, "k", flops=flops)
        # Ring: rank r receives only from rank r-1; no transfer bytes.
        senders = [[2], [0], [1]]
        prof.on_p2p_round(
            "halo", [1] * 3, [0.0] * 3, [1] * 3, [0.0] * 3, senders
        )
        # Rank 0 waits for rank 2 (t=3), NOT the global straggler rank 1.
        assert prof.t[0] == 3.0
        assert prof.segments[0][-1].kind == "wait"
        assert prof.segments[0][-1].extra == 2
        # Rank 1 was latest among {1, 0}: no wait at all.
        assert prof.t[1] == 9.0
        # Rank 2 waits for rank 1.
        assert prof.t[2] == 9.0

    def test_halo_transfer_is_max_of_directions(self):
        prof, ops = make_profiler(2)
        ops.record("default", 0, "k", flops=1.0)
        ops.record("default", 1, "k", flops=1.0)
        prof.on_p2p_round(
            "halo", [1, 1], [4.0, 2.0], [1, 1], [2.0, 4.0], [[1], [0]]
        )
        # Send 4 B vs recv 2 B on rank 0: overlapped -> 4 s.
        assert prof.t == [5.0, 5.0]
        assert prof.segments[0][-1].kind == "transfer"
        assert prof.segments[0][-1].duration == 4.0
        assert prof.segments[0][-1].extra == "halo"

    def test_phase_attribution_and_stats(self):
        prof, ops = make_profiler(2)
        ops.record("default", 0, "k", flops=1.0)
        ops.record("default", 1, "k", flops=1.0)
        prof.on_phase_begin("eq/solve")
        ops.record("eq/solve", 0, "k", flops=2.0)
        ops.record("eq/solve", 1, "k", flops=6.0)
        prof.on_collective("allreduce", 8.0)
        prof.on_phase_end("eq/solve")
        prof.finalize()
        cstats = prof.phase_compute_stats()
        assert cstats["eq/solve"]["max_s"] == 6.0
        assert cstats["eq/solve"]["mean_s"] == 4.0
        assert cstats["eq/solve"]["imbalance"] == 1.5
        assert cstats["eq/solve"]["straggler_rank"] == 1.0
        comm = prof.phase_comm_stats()
        assert comm["eq/solve"]["wait_s"] == 4.0
        assert comm["eq/solve"]["syncs"] == 1.0

    def test_phase_mismatch_raises(self):
        prof, _ops = make_profiler(1)
        prof.on_phase_begin("a")
        with pytest.raises(RuntimeError, match="phase stack"):
            prof.on_phase_end("b")

    def test_critical_path_hops_through_waits(self):
        prof, ops = make_profiler(2)
        ops.record("default", 0, "k", flops=2.0)
        ops.record("default", 1, "k", flops=5.0)
        prof.on_collective("barrier", 0.0)
        ops.record("default", 0, "k2", flops=4.0)
        ops.record("default", 1, "k2", flops=1.0)
        prof.finalize()
        assert prof.wall_time == 9.0
        path = prof.critical_path()
        # Straggler at the end is rank 0; its wait-free prefix hops back
        # through the barrier to rank 1's 5 s of compute.
        assert [(p["rank"], p["duration_s"]) for p in path] == [
            (1, 5.0),
            (0, 4.0),
        ]
        assert sum(p["duration_s"] for p in path) == prof.wall_time

    def test_critical_path_requires_finalize(self):
        prof, _ops = make_profiler(1)
        with pytest.raises(RuntimeError, match="finalize"):
            prof.critical_path()

    def test_finalize_is_idempotent(self):
        prof, ops = make_profiler(2)
        ops.record("default", 0, "k", flops=1.0)
        ops.record("default", 1, "k", flops=3.0)
        prof.finalize()
        n = sum(len(s) for s in prof.segments)
        prof.finalize()
        assert sum(len(s) for s in prof.segments) == n

    def test_markers_record_frontier_time(self):
        prof, ops = make_profiler(1)
        ops.record("default", 0, "k", flops=2.5)
        prof._flush_compute()
        prof.on_marker("solve", equation="momentum", iterations=7)
        (t, name, attrs) = prof.markers[0]
        assert (t, name) == (2.5, "solve")
        assert attrs == {"equation": "momentum", "iterations": 7}

    def test_chrome_trace_structure(self):
        prof, ops = make_profiler(2)
        ops.record("default", 0, "k", flops=1.0)
        ops.record("default", 1, "k", flops=2.0)
        prof.on_marker("step", index=0)
        prof.finalize()
        doc = to_chrome_trace(prof, workload="unit")
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} == {"M", "X", "i"}
        xs = [e for e in events if e["ph"] == "X"]
        # Wait events carry the waited-on rank for hover inspection.
        waits = [e for e in xs if e["cat"] == "wait"]
        assert waits and all(
            "waited_on_rank" in e["args"] for e in waits
        )
        # Timestamps are microseconds.
        assert any(e["dur"] == 1e6 for e in xs)
        tids = {e["tid"] for e in xs}
        assert tids == {0, 1}


class TestRooflineJoin:
    def test_fractions_bounded_and_bound_classified(self):
        ops = OpRecorder()
        machine = get_machine("summit-gpu")
        pricer = CostModel(machine)
        prof = TimelineProfiler(2, pricer=pricer, ops=ops)
        # A big bandwidth-heavy kernel and a launch-dominated one.
        for r in range(2):
            ops.record("eq/solve", r, "spmv", flops=1e9, nbytes=1e12, launches=1)
            ops.record("eq/solve", r, "tiny", flops=10.0, nbytes=10.0, launches=50)
        prof.on_phase_begin("eq/solve")
        prof.on_phase_end("eq/solve")
        prof.finalize()
        join = roofline_join(ops, prof, pricer)
        kernels = join["eq/solve"]["kernels"]
        assert set(kernels) == {"spmv", "tiny"}
        spmv = kernels["spmv"]
        assert spmv["bound"] == "bandwidth"
        assert 0.0 < spmv["achieved_bw_frac"] <= 1.0
        assert kernels["tiny"]["bound"] == "launch"
        for k in kernels.values():
            assert 0.0 <= k["achieved_bw_frac"] <= 1.0
            assert 0.0 <= k["achieved_flop_frac"] <= 1.0
        # Kernel model times cover the whole phase: coverage == 1.
        assert join["eq/solve"]["coverage"] == pytest.approx(1.0)


@pytest.fixture(scope="module")
def profiled_run():
    """One-step profiled turbine_tiny run shared by integration tests."""
    cfg = SimulationConfig(nranks=2, profile=True)
    sim = NaluWindSimulation("turbine_tiny", cfg)
    report = sim.run(1)
    return sim, report


def profile_section(nranks: int) -> dict:
    """The profile section of a one-step profiled ``turbine_tiny`` run."""
    cfg = SimulationConfig(nranks=nranks, profile=True)
    return NaluWindSimulation("turbine_tiny", cfg).run(1).telemetry.profile


class TestProfileIntegration:
    def test_document_schema_and_roundtrip(self, profiled_run):
        _sim, report = profiled_run
        t = report.telemetry
        assert t.schema == "repro.telemetry/1" and t.profile
        back = RunTelemetry.from_json(t.to_json())
        assert back.profile == json.loads(t.to_json())["profile"]
        assert back.to_json() == t.to_json()

    def test_accounting_identity_every_rank(self, profiled_run):
        _sim, report = profiled_run
        p = report.telemetry.profile
        wall = p["wall_time_s"]
        assert wall > 0.0
        assert set(p["ranks"]) == {"0", "1"}
        for rt in p["ranks"].values():
            assert abs(rt["accounted_s"] - wall) < 1e-12 * max(wall, 1.0)
        s = p["summary"]
        assert s["accounted_s"] == pytest.approx(
            s["compute_s"] + s["wait_s"] + s["transfer_s"]
        )

    def test_critical_path_sums_to_wall(self, profiled_run):
        _sim, report = profiled_run
        p = report.telemetry.profile
        assert p["critical_path"]["total_s"] == pytest.approx(
            p["wall_time_s"], rel=1e-12
        )
        assert p["critical_path"]["segments"]

    def test_roofline_covers_all_instrumented_kernels(self, profiled_run):
        sim, report = profiled_run
        roofline = report.telemetry.profile["roofline"]
        for phase in sim.world.ops.phases():
            kernels = sim.world.ops.kernels(phase)
            if not kernels:
                continue
            assert phase in roofline
            assert set(roofline[phase]["kernels"]) == set(kernels)
            for k in roofline[phase]["kernels"].values():
                assert k["bound"] in ("bandwidth", "flops", "launch")
                assert 0.0 <= k["achieved_bw_frac"] <= 1.0
                assert 0.0 <= k["achieved_flop_frac"] <= 1.0

    def test_profile_section_replaces_gauges(self, profiled_run):
        """The profile lives in its section, not in ``profile.*`` gauges."""
        _sim, report = profiled_run
        t = report.telemetry
        assert t.profile["machine"] == "summit-gpu"
        assert t.profile["summary"]["syncs"] == t.profile["exchanges"]["syncs"]
        assert not any(k.startswith("profile.") for k in t.metrics["gauges"])

    def test_exchange_stats_present(self, profiled_run):
        _sim, report = profiled_run
        by_kind = report.telemetry.profile["exchanges"]["by_kind"]
        assert "halo" in by_kind and "allreduce" in by_kind
        assert by_kind["halo"]["count"] > 0

    def test_profiled_run_is_clean(self, profiled_run):
        _sim, report = profiled_run
        assert recovery_findings(report.recovery) == []

    def test_markers_emitted(self, profiled_run):
        sim, _report = profiled_run
        names = [m[1] for m in sim.world.profiler.markers]
        assert "step" in names and "picard" in names and "solve" in names

    def test_bitwise_stable_across_runs(self):
        a, b = (
            json.dumps(profile_section(2), sort_keys=True) for _ in range(2)
        )
        assert a == b

    def test_comm_fraction_rises_with_ranks(self, profiled_run):
        """The fig8 story: more ranks, larger comm-wait share."""
        _sim, report = profiled_run
        lo = report.telemetry.profile["summary"]["comm_fraction"]
        hi = profile_section(6)["summary"]["comm_fraction"]
        assert hi > lo

    def test_profile_off_by_default(self, profiled_run):
        cfg = SimulationConfig(nranks=1)
        sim = NaluWindSimulation("turbine_tiny", cfg)
        assert sim.world.profiler is None
        t = sim.run(1).telemetry
        assert t.profile == {}
        assert not any(k.startswith("profile.") for k in t.metrics["gauges"])

    def test_summary_renders(self, profiled_run):
        _sim, report = profiled_run
        text = render_profile_summary(report.telemetry)
        assert text.startswith("profile: turbine_tiny (2 ranks")
        assert "critical path:" in text
        assert "roofline" in text


class TestInjectableClock:
    def test_fake_clock_gives_deterministic_spans(self):
        def run_once():
            ticks = iter(range(10**6))

            cfg = SimulationConfig(
                nranks=1, clock=lambda: float(next(ticks))
            )
            sim = NaluWindSimulation("turbine_tiny", cfg)
            report = sim.run(1)
            return report.telemetry.spans

        a, b = run_once(), run_once()
        assert a == b
        # Every duration is a whole number of ticks under the fake clock.
        def all_durations(spans):
            for s in spans:
                yield s["duration"]
                yield from all_durations(s["children"])

        durations = list(all_durations(a))
        assert durations and all(d == int(d) for d in durations)

    def test_clock_must_be_callable(self):
        with pytest.raises(ValueError, match="clock"):
            SimulationConfig(clock=42).validate()  # type: ignore[arg-type]


class TestProfileCLI:
    def test_profile_json_output_file(self, tmp_path):
        out = tmp_path / "p.json"
        rc = main(
            [
                "trace", "turbine_tiny", "--steps", "1", "--ranks", "2",
                "--machine", "eagle-cpu", "-o", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.telemetry/1"
        assert doc["profile"]["machine"] == "eagle-cpu"
        assert set(doc["profile"]["ranks"]) == {"0", "1"}

    def test_profile_chrome_format(self, tmp_path):
        out = tmp_path / "p.chrome.json"
        rc = main(
            [
                "trace", "turbine_tiny", "--steps", "1", "--ranks", "2",
                "--format", "chrome", "--output", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_profile_summary_stdout(self, capsys):
        rc = main(
            [
                "trace", "turbine_tiny", "--steps", "1", "--ranks", "2",
                "--format", "flat",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("run telemetry: turbine_tiny")
        assert "\nprofile: turbine_tiny (2 ranks, 1 steps) on summit-gpu" in out

    def test_trace_short_output_flag(self, tmp_path):
        out = tmp_path / "t.json"
        rc = main(
            [
                "trace", "turbine_tiny", "--steps", "1", "--ranks", "2",
                "-o", str(out),
            ]
        )
        assert rc == 0
        assert json.loads(out.read_text())["schema"] == "repro.telemetry/1"

    def test_trace_output_creates_missing_directories(self, tmp_path):
        out = tmp_path / "new" / "dir" / "t.json"
        rc = main(
            [
                "trace", "turbine_tiny", "--steps", "1", "--ranks", "2",
                "-o", str(out),
            ]
        )
        assert rc == 0
        assert json.loads(out.read_text())["profile"]


def _load_gate():
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "benchmarks",
        "check_telemetry_regression.py",
    )
    spec = importlib.util.spec_from_file_location("check_telemetry", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestProfileGate:
    """``check_telemetry_regression.py`` on the profile section."""

    def test_drift_mode_identical_passes(self, tmp_path, profiled_run):
        _sim, report = profiled_run
        p = tmp_path / "p.json"
        p.write_text(report.telemetry.to_json())
        gate = _load_gate()
        assert gate.main([str(p), str(p)]) == 0

    def test_drift_mode_detects_change(self, tmp_path, profiled_run, capsys):
        _sim, report = profiled_run
        gate = _load_gate()
        base = tmp_path / "base.json"
        base.write_text(report.telemetry.to_json())
        doc = report.telemetry.to_dict()
        doc["profile"]["summary"]["comm_fraction"] *= 3.0
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(doc))
        assert gate.main([str(base), str(cur)]) == 1
        assert "profile summary.comm_fraction drift" in capsys.readouterr().out

    def test_drift_keys_held_to_profile_tol(self, profiled_run):
        """A 1e-5 relative move of any drift key fails, as does one more
        split round; the same move of the hidden-wait seconds stays
        within ``--iters-tol``."""
        _sim, report = profiled_run
        gate = _load_gate()
        base = report.telemetry.to_dict()["profile"]
        phase = next(k for k, v in base["phases"].items() if v["wait_s"] > 0)
        for path, what in (
            (("summary", "comm_fraction"), "summary.comm_fraction drift"),
            (("summary", "wait_fraction"), "summary.wait_fraction drift"),
            (("summary", "syncs"), "summary.syncs drift"),
            (("phases", phase, "wait_s"), f"phase {phase!r} wait_s drift"),
            (("phases", phase, "imbalance"), f"phase {phase!r} imbalance"),
            (("phases", phase, "syncs"), f"phase {phase!r} syncs drift"),
            (("critical_path", "total_s"), "critical path length drift"),
            (("summary", "overlap_rounds"), "overlap_rounds changed"),
        ):
            cur = json.loads(json.dumps(base))
            *outer, key = path
            entry = functools.reduce(dict.__getitem__, outer, cur)
            entry[key] = entry[key] * (1.0 + 1e-5) + 1e-5
            failures = gate.compare_profiles(base, cur, 0.1)
            assert len(failures) == 1, failures
            assert failures[0].startswith(f"profile {what}")
        base["summary"]["overlap_saved_wait_s"] = 0.01
        cur = json.loads(json.dumps(base))
        cur["summary"]["overlap_saved_wait_s"] *= 1.0 + 1e-5
        assert gate.compare_profiles(base, cur, 0.1) == []

    def test_section_compared_only_when_both_carry_one(
        self, tmp_path, profiled_run
    ):
        _sim, report = profiled_run
        gate = _load_gate()
        doc = report.telemetry.to_dict()
        base = tmp_path / "base.json"
        base.write_text(json.dumps(doc))
        doc["profile"] = {}
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(doc))
        assert gate.main([str(base), str(cur)]) == 0
