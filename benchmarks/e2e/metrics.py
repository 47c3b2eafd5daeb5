"""Metric definitions and the arithmetic that turns pass records into them.

Two clocks, named on every end-to-end metric: *host* is
``time.perf_counter`` around public calls, *modeled* is
``harness.nli_step_times`` on ``summit-gpu`` and repeats exactly.

Host-wall headlines are **per-index best-of-R**: every repeat of a workload
does identical deterministic work between the same two marks (solve and
step-complete hub events; job events for the campaign), interference on a
shared machine only adds time, so each interval takes its minimum across
repeats and the headline is assembled from those.  The whole-run value of
each repeat is kept beside it as ``samples`` with median and quartiles.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class EndToEnd:
    """One end-to-end metric and its regression bound."""

    name: str
    unit: str
    better: str
    clock: str  # "host" | "modeled" | "count"
    bound: float  # share of the base value it may worsen by
    floor: float = 0.0  # absolute change below which it never counts
    kinds: tuple[str, ...] = ("sim", "campaign")
    #: Listed under ``end_to_end`` in BENCHMARK.json.  The driver needs a
    #: metric there to exist, and never be 0, on every workload, and rejects
    #: a time that reads the same on every run, and its spread over ten runs
    #: must stay within the bound; the others reach it as the per-layer
    #: metrics ``harness.modeled_nli_s`` / ``campaign.warm_sweep_s`` /
    #: ``core.first_step_s`` and as ``failed``/``attempted``.
    driver: bool = True


#: Host bounds come from the quartile spread (IQR / median) of sets of ten
#: driver runs per workload on the 2-core sandbox: up to 2.9 % for RSS, up
#: to 13 % for the wall metrics (one pass of low_r12_default); see README.md.
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", "host", 0.25, floor=0.05),
    EndToEnd("step_wall_s", "s", "lower", "host", 0.25),
    EndToEnd("run_wall_s", "s", "lower", "host", 0.25),
    EndToEnd("node_steps_per_s", "1/s", "higher", "host", 0.25),
    EndToEnd("peak_rss_mb", "MiB", "lower", "host", 0.10),
    # One short interval (0.6-7 s), so the noisiest (spread up to 20 % on
    # the campaign): compared by compare.py, not gated by the driver.
    EndToEnd("first_result_s", "s", "lower", "host", 0.25, driver=False),
    EndToEnd("modeled_nli_s", "sim_s", "lower", "modeled", 0.001,
             kinds=("sim",), driver=False),
    EndToEnd("warm_sweep_s", "s", "lower", "host", 0.25, floor=0.02,
             kinds=("campaign",), driver=False),
    EndToEnd("failed_frac", "ratio", "lower", "count", 0.0, driver=False),
)

#: Names under ``end_to_end`` in BENCHMARK.json.
DRIVER_METRICS = frozenset(m.name for m in END_TO_END if m.driver)

#: ``(name, unit, better)``.  ``*_self_s`` are self seconds per step of the
#: traced pass (campaign: per cold sweep), ``*_calls`` and ``*_per_step``
#: counts per step, the rest as noted in the README.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("comm.halo_self_s", "s", "lower"),
    ("comm.halo_calls", "count", "lower"),
    ("comm.collective_self_s", "s", "lower"),
    ("comm.build_pattern_self_s", "s", "lower"),
    ("comm.messages_per_step", "count", "lower"),
    ("comm.message_bytes_per_step", "B", "lower"),
    ("comm.collectives_per_step", "count", "lower"),
    ("comm.retries", "count", "lower"),
    ("linalg.matvec_self_s", "s", "lower"),
    ("linalg.matvec_calls", "count", "lower"),
    ("linalg.parcsr_init_self_s", "s", "lower"),
    ("linalg.parcsr_init_calls", "count", "lower"),
    ("linalg.spgemm_self_s", "s", "lower"),
    ("linalg.galerkin_refresh_self_s", "s", "lower"),
    ("amg.setup_self_s", "s", "lower"),
    ("amg.setup_calls", "count", "lower"),
    ("amg.refresh_self_s", "s", "lower"),
    ("amg.refresh_calls", "count", "lower"),
    ("amg.vcycle_self_s", "s", "lower"),
    ("amg.vcycle_calls", "count", "lower"),
    ("amg.levels", "count", "lower"),
    ("amg.operator_complexity", "ratio", "lower"),
    ("smoothers.make_self_s", "s", "lower"),
    ("smoothers.make_calls", "count", "lower"),
    ("smoothers.apply_self_s", "s", "lower"),
    ("smoothers.apply_calls", "count", "lower"),
    ("krylov.solve_self_s", "s", "lower"),
    ("krylov.orthogonalize_self_s", "s", "lower"),
    ("krylov.iters_momentum", "count", "lower"),
    ("krylov.iters_pressure", "count", "lower"),
    ("krylov.iters_scalar", "count", "lower"),
    ("krylov.nonconverged", "count", "lower"),
    ("overset.assemble_self_s", "s", "lower"),
    ("overset.assemble_calls", "count", "lower"),
    ("overset.fringe_nodes", "count", "lower"),
    ("mesh.advance_rotor_self_s", "s", "lower"),
    ("mesh.generate_s", "s", "lower"),
    ("partition.partition_s", "s", "lower"),
    ("partition.nnz_imbalance", "ratio", "lower"),
    ("partition.edge_cut", "count", "lower"),
    ("assembly.graph_self_s", "s", "lower"),
    ("assembly.local_self_s", "s", "lower"),
    ("assembly.global_matrix_self_s", "s", "lower"),
    ("assembly.global_vector_self_s", "s", "lower"),
    ("assembly.plan_hits", "count", "higher"),
    ("assembly.plan_rebuilds", "count", "lower"),
    ("assembly.plan_hit_ratio", "ratio", "higher"),
    ("core.glue_self_s", "s", "lower"),
    ("core.operators_self_s", "s", "lower"),
    ("core.operators_calls", "count", "lower"),
    ("core.construct_self_s", "s", "lower"),
    ("core.first_step_s", "s", "lower"),
    ("core.import_s", "s", "lower"),
    ("perf.collect_aggregates_self_s", "s", "lower"),
    ("perf.flops_per_step", "flop", "lower"),
    ("perf.kernel_bytes_per_step", "B", "lower"),
    ("perf.launches_per_step", "count", "lower"),
    ("harness.price_nli_s", "s", "lower"),
    ("harness.modeled_nli_s", "sim_s", "lower"),
    ("obs.collect_telemetry_s", "s", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("resilience.guards_self_s", "s", "lower"),
    ("resilience.checkpoint_write_s", "s", "lower"),
    ("resilience.checkpoint_bytes", "B", "lower"),
    ("resilience.restart_load_s", "s", "lower"),
    ("resilience.solver_failures", "count", "lower"),
    ("resilience.recoveries", "count", "lower"),
    ("campaign.overhead_per_job_s", "s", "lower"),
    ("campaign.store_put_self_s", "s", "lower"),
    ("campaign.store_get_self_s", "s", "lower"),
    ("campaign.manifest_write_self_s", "s", "lower"),
    ("campaign.manifest_writes", "count", "lower"),
    ("campaign.manifest_bytes_written", "B", "lower"),
    ("campaign.lease_self_s", "s", "lower"),
    ("campaign.cache_hit_ratio", "ratio", "higher"),
    ("campaign.plan_shared", "count", "higher"),
    ("campaign.retries", "count", "lower"),
    ("campaign.warm_sweep_s", "s", "lower"),
)

#: Per-layer metrics that are not ``<span>_self_s`` / ``<span>_calls`` of the
#: span with the same stem.
SPAN_EXCEPTIONS = {
    "comm.halo_self_s": ("comm.halo", "comm.halo_begin", "comm.halo_finish"),
    "comm.halo_calls": ("comm.halo", "comm.halo_begin"),
    "core.glue_self_s": ("core.step", "core.glue"),
    "campaign.manifest_writes": ("campaign.manifest_write",),
}

TRACE_OVERHEAD_LIMIT = 0.05
IDENTITY_TOLERANCE = 1e-6


def spread(samples: list[float]) -> dict:
    """Median and quartiles of the per-repeat whole-run values."""
    if not samples:
        return {"n": 0}
    out = {"n": len(samples), "median": statistics.median(samples)}
    if len(samples) >= 2:
        q1, _q2, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3, iqr_frac=(q3 - q1) / out["median"])
    return out


CAL, RAW = 0, 1  # columns of a record's ``[calibrated, raw]`` pairs


def best_segments(records: list[dict], col: int) -> list[float]:
    """Per-index minimum of the repeats' segment durations.

    The repeats pass the same marks: ``determinism_problems`` fails the
    workload before anything is built on segments that do not line up.
    """
    return [
        min(r["segments"][i][1 + col] for r in records)
        for i in range(len(records[0]["segments"]))
    ]


def headline(records: list[dict], col: int = CAL) -> dict[str, float]:
    """Host values assembled from per-index bests.

    One repeat alone gives that repeat's own whole-run values.
    """
    shape = records[0]
    best = best_segments(records, col)
    sums: dict = {}
    for seg, dt in zip(shape["segments"], best):
        sums[seg[0]] = sums.get(seg[0], 0.0) + dt
    total = sum(best)
    setups = [s[col] for r in records for s in r["setup_samples"]]
    if shape["kind"] == "campaign":
        return {
            "setup_s": statistics.median(setups),
            "step_wall_s": total / (shape["jobs"] * shape["steps"]),
            "run_wall_s": total,
            "node_steps_per_s": shape["node_steps"] / total,
            "first_result_s": min(r["first_result_s"][col] for r in records),
            "warm_sweep_s": min(
                s[col] for r in records for s in r["warm_sweep_samples"]
            ),
        }
    first_setup = min(r["setup_samples"][0][col] for r in records)
    steps = [sums[i] for i in range(shape["steps"])]
    # Steps 1..N-1: step 0 is cold (a 1-step smoke run has nothing else).
    steady = steps[1:] or steps
    return {
        "setup_s": statistics.median(setups),
        "step_wall_s": statistics.fmean(steady),
        "run_wall_s": first_setup + total,
        "node_steps_per_s": shape["total_nodes"] * len(steps) / sum(steps),
        "first_result_s": first_setup + steps[0],
        "core.first_step_s": steps[0],
    }


def end_to_end(records: list[dict], failed_frac: float) -> dict[str, dict]:
    """End-to-end metrics of one workload from its repeats.

    Each metric is ``{"value", "unit", "clock", "better", "samples",
    "spread"}`` and, on the host clock, ``"raw"``: the same formula over
    uncalibrated wall seconds.
    """
    first = records[0]
    values = headline(records)
    raw = headline(records, RAW)
    values["peak_rss_mb"] = statistics.median(r["rss_mb"] for r in records)
    values["modeled_nli_s"] = first["counts"].get("harness.modeled_nli_s")
    values["failed_frac"] = failed_frac
    per_repeat = [
        {**headline([r]), "peak_rss_mb": r["rss_mb"]} for r in records
    ]
    out = {}
    for m in END_TO_END:
        if first["kind"] not in m.kinds:
            continue
        samples = [v[m.name] for v in per_repeat if m.name in v]
        out[m.name] = {
            "value": values[m.name],
            "unit": m.unit,
            "better": m.better,
            "clock": m.clock,
            "samples": samples,
            "spread": spread(samples),
        }
        if m.name in raw:
            out[m.name]["raw"] = raw[m.name]
    return out


def spans_of(metric: str) -> tuple[str, ...] | None:
    """Span names behind a ``*_self_s`` / ``*_calls`` metric, else None."""
    if metric in SPAN_EXCEPTIONS:
        return SPAN_EXCEPTIONS[metric]
    for suffix in ("_self_s", "_calls"):
        if metric.endswith(suffix):
            return (metric[: -len(suffix)],)
    return None


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one workload: ``(metrics, reliability)``.

    Counts come from the public report of the first repeat (they are checked
    to be equal in all of them); host times outside the tracer take their
    minimum across the untraced repeats, traced self times across the traced
    ones.  Metrics a workload has no use for read 0.
    """
    records = untraced or traced
    values: dict[str, float] = {name: 0.0 for name, _u, _b in PER_LAYER}
    values.update(records[0]["counts"])
    values["core.import_s"] = min(r["import_s"] for r in records)
    for key in records[0]["host"]:
        values[key] = min(r["host"][key] for r in records)
    best = headline(records)
    values["core.first_step_s"] = best.get("core.first_step_s", 0.0)
    values["campaign.warm_sweep_s"] = best.get("warm_sweep_s", 0.0)
    reliability: dict = {"traced": bool(traced)}
    if not traced:
        return _with_units(values), reliability

    for name in traced[0]["spans"]["layers"]:
        values[name] = min(t["spans"]["layers"][name] for t in traced)
    # Like with like: whole-run values of single passes, not the best-of-R
    # headline (a sum of per-index minima sits below any single pass).
    values["bench.trace_overhead_frac"] = (
        statistics.median(headline([t])["step_wall_s"] for t in traced)
        / statistics.median(headline([r])["step_wall_s"] for r in records)
        - 1.0
    )
    total = traced[0]["spans"].get("step_total_s", 0.0)
    self_sum = traced[0]["spans"].get("step_self_sum_s", 0.0)
    reliability.update(
        identity_rel_err=abs(self_sum - total) / total if total else 0.0,
        wrappers_left=sum(len(t["wrappers_left"]) for t in traced),
    )
    reliability["reliable"] = (
        reliability["identity_rel_err"] <= IDENTITY_TOLERANCE
        and values["bench.trace_overhead_frac"] <= TRACE_OVERHEAD_LIMIT
        and reliability["wrappers_left"] == 0
    )
    return _with_units(values), reliability


def _with_units(values: dict[str, float]) -> dict[str, dict]:
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit, _better in PER_LAYER
    }


def determinism_problems(records: list[dict]) -> list[str]:
    """What differs between repeats that must be bitwise equal.

    The deterministic block of each record, and the marks passed (the
    per-index best needs the segments of all repeats to line up).
    """
    base = records[0]
    problems = []
    for i, rec in enumerate(records[1:], start=1):
        for key, value in rec["deterministic"].items():
            if value != base["deterministic"].get(key):
                problems.append(f"repeat {i}: {key} differs from repeat 0")
        if [s[0] for s in rec["segments"]] != [s[0] for s in base["segments"]]:
            problems.append(f"repeat {i}: marks differ from repeat 0")
    return problems
