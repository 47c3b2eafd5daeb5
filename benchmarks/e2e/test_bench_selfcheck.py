"""Self-checks of the benchmark itself (not of the program it measures).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (< 60 s); the
Tier-1 suite does not collect this directory.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import metrics  # noqa: E402
import otrace  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# -- the tracer ---------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _synthetic(recorder: otrace.SpanRecorder, clock: FakeClock):
    def leaf(dt: float, fail: bool = False) -> None:
        clock.t += dt
        if fail:
            raise ValueError("boom")

    leaf_t = recorder.wrap(leaf, "leaf")

    def mid(fail: bool = False) -> None:
        clock.t += 1.0
        leaf_t(2.0)
        leaf_t(3.0, fail)
        clock.t += 0.5

    mid_t = recorder.wrap(mid, "mid")

    def top(fail: bool = False) -> None:
        clock.t += 0.25
        mid_t()
        mid_t(fail)

    return recorder.wrap(top, "top")


def test_self_times_sum_to_the_root_span():
    clock = FakeClock()
    rec = otrace.SpanRecorder(clock)
    _synthetic(rec, clock)()
    st = otrace.self_times(rec.spans)
    assert st["leaf"] == [10.0, 4]
    assert st["mid"] == [3.0, 2]
    assert st["top"] == [0.25, 1]
    (total,) = otrace.durations(rec.spans, "top")
    assert sum(v[0] for v in st.values()) == total == 13.25
    # within: only spans at or below a "mid" span
    assert set(otrace.self_times(rec.spans, within="mid")) == {"mid", "leaf"}
    # parents precede children, every span closed
    assert all(s[3] < i for i, s in enumerate(rec.spans))
    assert all(s[2] is not None for s in rec.spans)


def test_self_times_hold_under_exceptions():
    clock = FakeClock()
    rec = otrace.SpanRecorder(clock)
    with pytest.raises(ValueError):
        _synthetic(rec, clock)(fail=True)
    assert rec._stack == []
    assert all(s[2] is not None for s in rec.spans)
    st = otrace.self_times(rec.spans)
    (total,) = otrace.durations(rec.spans, "top")
    assert sum(v[0] for v in st.values()) == pytest.approx(total, rel=1e-12)
    assert st["leaf"][1] == 4 and st["mid"][0] == 2.5  # 2nd mid cut short


def test_wrappers_patch_every_binding_and_come_off():
    import repro.comm.exchange as exchange
    import repro.linalg.parcsr as parcsr
    from repro.linalg.parcsr import ParCSRMatrix

    original_fn = exchange.exchange_halo
    original_method = ParCSRMatrix.__dict__["matvec"]
    assert parcsr.exchange_halo is original_fn
    uninstall = otrace.install(otrace.SpanRecorder())
    try:
        assert exchange.exchange_halo is not original_fn
        # the binding the caller uses carries the same wrapper
        assert parcsr.exchange_halo is exchange.exchange_halo
        assert exchange.exchange_halo.__otrace_original__ is original_fn
        assert ParCSRMatrix.__dict__["matvec"] is not original_method
        assert otrace.installed()
    finally:
        uninstall()
    assert otrace.installed() == []
    assert exchange.exchange_halo is original_fn
    assert parcsr.exchange_halo is original_fn
    assert ParCSRMatrix.__dict__["matvec"] is original_method


# -- the whole benchmark, once, at smoke size ----------------------------------


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    t = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "-o", out],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - t
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), proc.stdout, elapsed


def test_smoke_is_quick_and_clean(smoke):
    doc, stdout, elapsed = smoke
    assert elapsed < 45.0
    assert doc["correct"] and set(doc["workloads"]) == set(WORKLOADS)
    for wl in doc["workloads"].values():
        assert wl["failed"] == 0 and wl["attempted"] >= 1
        assert wl["end_to_end"]["failed_frac"]["value"] == 0.0
    assert not os.path.exists(run.WORK_ROOT)


def test_every_named_metric_is_there_with_a_unit(smoke):
    doc, stdout, _ = smoke
    for name, wl in doc["workloads"].items():
        kind = WORKLOADS[name].kind
        want = {m.name: m.unit for m in metrics.END_TO_END if kind in m.kinds}
        assert {k: v["unit"] for k, v in wl["end_to_end"].items()} == want
        for m in wl["end_to_end"].values():
            assert m["clock"] in ("host", "modeled", "count")
            if m["clock"] == "host":
                assert m["value"] > 0.0
        layers = {n: u for n, u, _ in metrics.PER_LAYER}
        assert {k: v["unit"] for k, v in wl["per_layer"].items()} == layers
    for m in metrics.END_TO_END:
        assert m.name in stdout
    for layer_metric, _unit, _better in metrics.PER_LAYER:
        assert layer_metric in stdout
    assert set(doc["loc"]) >= {"loc.amg", "loc.analysis", "loc.campaign"}


def test_every_boundary_is_hit_on_some_workload(smoke):
    doc, _stdout, _ = smoke
    calls: dict[str, int] = {}
    for wl in doc["workloads"].values():
        (traced,) = [r for r in wl["records"] if r["traced"]]
        assert traced["wrappers_left"] == []
        for span, (_self_s, n) in traced["spans"]["all"].items():
            calls[span] = calls.get(span, 0) + n
    missing = [s for s in otrace.SPAN_NAMES if not calls.get(s)]
    assert not missing, f"boundaries never hit: {missing}"


def test_layers_sum_to_the_step(smoke):
    doc, _stdout, _ = smoke
    for name, wl in doc["workloads"].items():
        if WORKLOADS[name].kind != "sim":
            continue
        assert wl["reliability"]["identity_rel_err"] <= 1e-6
        (traced,) = [r for r in wl["records"] if r["traced"]]
        # ... and the reported per-layer self times are that same sum
        layer_sum = sum(
            m["value"]
            for metric, m in wl["per_layer"].items()
            if metric.endswith("_self_s")
            and metrics.spans_of(metric)
            and metric != "core.construct_self_s"  # per construction, no step
        )
        assert layer_sum == pytest.approx(
            traced["spans"]["step_total_s"], rel=1e-6
        )
        assert wl["per_layer"]["core.glue_self_s"]["value"] > 0.0


def test_restart_and_campaign_checks_ran(smoke):
    doc, _stdout, _ = smoke
    tiny = doc["workloads"]["tiny_r2_motion"]
    assert tiny["attempted"] > 2 * WORKLOADS["tiny_r2_motion"].smoke_steps
    assert tiny["per_layer"]["resilience.checkpoint_bytes"]["value"] > 0
    camp = doc["workloads"]["campaign_tiny_sweep"]["per_layer"]
    assert camp["campaign.cache_hit_ratio"]["value"] == 1.0
    assert camp["campaign.manifest_bytes_written"]["value"] > 0


# -- a failed check fails the command -------------------------------------------


def _records(doc: dict, name: str) -> tuple[list, list]:
    recs = copy.deepcopy(doc["workloads"][name]["records"])
    return ([r for r in recs if not r["traced"]],
            [r for r in recs if r["traced"]])


def test_diverging_repeats_fail_every_operation(smoke):
    doc, _stdout, _ = smoke
    untraced, traced = _records(doc, "tiny_r2_motion")
    traced[0]["deterministic"]["state"]["velocity"] = "0" * 64
    result = run.summarize("tiny_r2_motion", untraced, traced)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("state differs" in p for p in result["problems"])


def test_a_failed_step_counts_and_fails_the_driver_form(smoke, monkeypatch, capsys):
    doc, _stdout, _ = smoke
    untraced, _traced = _records(doc, "low_r4_altpaths")
    untraced[0]["failures"] = [{"op": "step 0", "why": "divergence norm 1.0"}]
    monkeypatch.setattr(run, "spawn_pass", lambda *a, **k: untraced[0])
    code = run.driver_run("low_r4_altpaths", seed=0, seconds=0.0, trace=False)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and last["correct"] is False and last["failed"] == 1
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == metrics.DRIVER_METRICS


def test_a_crashed_child_is_a_failure(monkeypatch, capsys):
    crash = {"workload": "low_r12_default", "traced": False, "crashed": "code 1"}
    monkeypatch.setattr(run, "spawn_pass", lambda *a, **k: dict(crash))
    assert run.driver_run("low_r12_default", 0, 0.0, trace=False) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 1


def test_driver_pass_count_follows_the_pass_budget(smoke, monkeypatch, capsys):
    """Whole passes that fit ``--seconds`` by the stated budget, 1 to 2."""
    doc, _stdout, _ = smoke
    untraced, _traced = _records(doc, "tiny_r2_motion")
    calls = []
    monkeypatch.setattr(
        run, "spawn_pass", lambda *a, **k: calls.append(a) or untraced[0]
    )
    budget = WORKLOADS["tiny_r2_motion"].pass_budget_s
    for seconds, passes in ((0.0, 1), (2 * budget - 1, 1), (2 * budget, 2),
                            (9 * budget, run.MAX_PASSES)):
        calls.clear()
        assert run.driver_run("tiny_r2_motion", 0, seconds, trace=False) == 0
        assert len(calls) == passes
    capsys.readouterr()


def test_no_program_no_result(tmp_path):
    """Only the benchmark's files present: non-zero exit, nothing printed."""
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "tiny_r2_motion", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0 and proc.stdout == ""


# -- BENCHMARK.json and compare.py ------------------------------------------------


def test_benchmark_json_matches_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["run_seconds"] == run.RUN_SECONDS
    # The driver makes 4 + 22 x workloads runs and refuses the file unless
    # they fit into an hour at run_seconds each.
    assert (4 + 22 * len(spec["workloads"])) * spec["run_seconds"] <= 3600
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == [
        (m.name, m.unit, m.better, m.bound)
        for m in metrics.END_TO_END
        if m.driver
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]


def test_compare_verdicts(smoke):
    doc, _stdout, _ = smoke
    rows, notes = compare.compare(doc, doc)
    assert rows and not notes and {r[-1] for r in rows} == {"ok"}

    worse = copy.deepcopy(doc)
    m = worse["workloads"]["low_r12_default"]["end_to_end"]["step_wall_s"]
    m["value"] *= 1.5
    m["samples"] = [s * 1.5 for s in m["samples"]]
    rows, _ = compare.compare(doc, worse)
    assert [r[-1] for r in rows if r[:2] == ("low_r12_default", "step_wall_s")] == ["worse"]
    # the other direction is an improvement
    assert {r[-1] for r in compare.compare(worse, doc)[0]} == {"ok"}

    # wide stored spread + overlapping runs: the files cannot tell
    noisy = copy.deepcopy(worse)
    m = noisy["workloads"]["low_r12_default"]["end_to_end"]["step_wall_s"]
    m["samples"] = [m["value"] * 0.5, m["value"] * 1.2]
    m["spread"] = metrics.spread(m["samples"])
    rows, _ = compare.compare(doc, noisy)
    assert [r[-1] for r in rows if r[:2] == ("low_r12_default", "step_wall_s")] == ["unresolved"]

    failing = copy.deepcopy(doc)
    failing["workloads"]["tiny_r2_motion"]["end_to_end"]["failed_frac"]["value"] = 0.1
    assert "worse" in {r[-1] for r in compare.compare(doc, failing)[0]}

    counted = copy.deepcopy(doc)
    counted["workloads"]["tiny_r2_motion"]["per_layer"]["krylov.iters_pressure"]["value"] += 1
    assert len(compare.compare(doc, counted)[1]) == 1
