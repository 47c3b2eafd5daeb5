"""The workload table and one measured *pass* of each workload.

A pass is what one child process does: import, a discarded warm-up, then the
workload once, timed with ``time.perf_counter`` around public calls (the
*host* clock, every interval also divided by the machine's speed index, see
``speed.py``) and priced with ``harness.nli_step_times`` on ``summit-gpu``
(the *modeled* clock).  The pass returns one JSON-shaped record; ``run.py``
combines the records of several passes.  Every host time in a record is a
pair ``[calibrated, raw]`` seconds.

The seed becomes ``SimulationConfig.world_seed`` (the campaign's
``seeds=[s, s+1, s+2]``); the program receives only the generated config.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import metrics
import otrace
from speed import REF_NOMINAL_S, SpeedMeter

MACHINE = "summit-gpu"
REFERENCE_SPAN = "bench.reference"
DIVERGENCE_LIMIT = 1e-6
clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    """One row of the workload table."""

    name: str
    why: str
    kind: str  # "sim" | "campaign"
    mesh: str
    steps: int
    smoke_steps: int
    #: Wall seconds one whole pass (child start to exit) is budgeted at: the
    #: measured cost plus a tenth.  The driver form makes
    #: ``--seconds // pass_budget_s`` passes.
    pass_budget_s: float
    #: ``SimulationConfig.from_dict`` overrides (sim), or the campaign
    #: spec's ``base`` / ``grid`` / ``n_seeds`` (campaign).
    config: dict
    #: Merged over ``config`` in a smoke pass.
    smoke_config: dict = field(default_factory=dict)

    def shape(self, smoke: bool) -> tuple[int, dict]:
        """``(steps, config)`` of a full or a smoke pass."""
        if smoke:
            return self.smoke_steps, {**self.config, **self.smoke_config}
        return self.steps, self.config


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "low_r12_default",
            "README operating point and the paper's optimized config: "
            "solve- and halo-bound (comm, linalg, krylov, amg, smoothers)",
            "sim", "turbine_low", 2, 1, 20.0,
            {"nranks": 12},
        ),
        Workload(
            "tiny_r2_motion",
            "many cheap 1-Picard steps: overset, graph and AMG setup "
            "dominate, solver does little; only checkpoint write + restart",
            "sim", "turbine_tiny", 20, 5, 16.0,
            # The cadence must not divide the step count, so the newest ring
            # entry is older than the final state and the restart has steps
            # left to run.
            {"nranks": 2, "picard_iterations": 1, "checkpoint_every": 8},
            {"checkpoint_every": 2},
        ),
        Workload(
            "low_r4_altpaths",
            "every non-default path at once (general assembly, no plan, "
            "RCB, AMG refresh, split halo); momentum-Krylov-heavy",
            "sim", "turbine_low", 2, 1, 16.0,
            {
                "nranks": 4,
                "assembly_variant": "general",
                "reuse_assembly_plan": False,
                "partition_method": "rcb",
                "sgs_inner": 1,
                "precond_rebuild_every": 4,
                "amg_refresh": True,
                "momentum_solver": {"overlap": True},
                "scalar_solver": {"overlap": True},
                # nested from_dict starts from SolverConfig's defaults, not
                # the pressure solver's: restate them
                "pressure_solver": {
                    "tol": 1e-6, "max_iters": 300, "overlap": True,
                },
            },
        ),
        Workload(
            "campaign_tiny_sweep",
            "6-job picard sweep through Campaign(workers=1): manifest, "
            "lease, store, plan adoption; cold writes beside warm reads",
            "campaign", "turbine_tiny", 2, 1, 16.0,
            {
                "base": {"nranks": 2},
                "grid": {"picard_iterations": [2, 3]},
                "n_seeds": 3,
            },
            {"n_seeds": 1},
        ),
    )
}


def _rss_mb(children: bool = False) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class Timeline:
    """Marks passed by one run, with speed samples taken at them.

    Every repeat of a workload does identical work between the same two
    marks, which is what lets ``run.py`` take a per-index best across
    repeats at a finer grain than the whole step.  The reference kernel runs
    *at* a mark and its time is cut out: the next interval starts when it
    returns.
    """

    def __init__(self, sample_every_mark: bool) -> None:
        self.meter = SpeedMeter()
        self.sample_every_mark = sample_every_mark
        self.marks: list[tuple[Any, float, float]] = []

    def mark(self, group: Any) -> None:
        """Pass a mark that closes an interval of ``group``."""
        t = clock()
        self.meter.sample(force=self.sample_every_mark)
        self.marks.append((group, t, clock()))

    def timed(self, fn: Callable[[], Any]) -> tuple[Any, tuple[float, float]]:
        """``fn()`` with a speed sample either side: ``(result, (t0, t1))``."""
        self.meter.sample()
        t0 = clock()
        result = fn()
        t1 = clock()
        self.meter.sample()
        return result, (t0, t1)

    def pair(self, interval: tuple[float, float]) -> list[float]:
        """``[calibrated, raw]`` seconds of an interval (call after the run)."""
        raw = interval[1] - interval[0]
        return [raw / self.meter.index(*interval), raw]

    def segments(self, interval: tuple[float, float]) -> list[list]:
        """``[[group, calibrated, raw], ...]`` between consecutive marks."""
        out = []
        prev = interval[0]
        for group, t, resume in self.marks:
            out.append([group, *self.pair((prev, t))])
            prev = resume
        out.append(["tail", *self.pair((prev, interval[1]))])
        return out

    def speed_summary(self) -> dict:
        """Range of the raw reference samples over the nominal time."""
        ratios = [dt / REF_NOMINAL_S for _t, dt in self.meter.samples]
        return {
            "samples": len(ratios),
            "index_min": min(ratios),
            "index_median": statistics.median(ratios),
            "index_max": max(ratios),
        }


def _import_repro() -> float:
    t = clock()
    import repro  # noqa: F401
    import repro.campaign  # noqa: F401
    import repro.harness  # noqa: F401

    return clock() - t


def _warm_up() -> None:
    """Discarded: pays the lazy scipy imports and first-call caches."""
    from repro import NaluWindSimulation, SimulationConfig

    NaluWindSimulation(
        "turbine_tiny", SimulationConfig(nranks=2, picard_iterations=1)
    ).step()


def run_pass(
    name: str,
    seed: int,
    workdir: str,
    smoke: bool = False,
    traced: bool = False,
    trace_out: str | None = None,
) -> dict:
    """One pass of workload ``name``; see the module docstring."""
    wl = WORKLOADS[name]
    import_s = _import_repro()
    _warm_up()
    recorder = uninstall = None
    if traced:
        recorder = otrace.SpanRecorder()
        uninstall = otrace.install(
            recorder,
            probes={
                "campaign.manifest_write": lambda args, _res: os.path.getsize(
                    args[0].path
                )
            },
        )
    try:
        body = _campaign_pass if wl.kind == "campaign" else _sim_pass
        record = body(wl, seed, workdir, smoke, recorder)
    finally:
        if uninstall is not None:
            uninstall()
    record.update(
        workload=name,
        kind=wl.kind,
        seed=seed,
        smoke=smoke,
        traced=traced,
        import_s=import_s,
        rss_mb=_rss_mb(children=wl.kind == "campaign"),
    )
    if traced:
        record["wrappers_left"] = otrace.installed()
        record["n_spans"] = len(recorder.spans)
        if trace_out:
            otrace.write_chrome_trace(recorder.spans, trace_out)
    return record


# -- simulation workloads ---------------------------------------------------


def _sim_pass(
    wl: Workload, seed: int, workdir: str, smoke: bool, recorder
) -> dict:
    import numpy as np

    from repro import NaluWindSimulation, SimulationConfig
    from repro.campaign import field_digest
    from repro.harness import nli_step_times
    from repro.perf.machines import get_machine

    n, overrides = wl.shape(smoke)
    ckpt_dir = os.path.join(workdir, "ring")

    def config(**extra: Any) -> SimulationConfig:
        doc = {**overrides, "world_seed": seed, **extra}
        if doc.get("checkpoint_every"):
            doc["checkpoint_dir"] = ckpt_dir
        return SimulationConfig.from_dict(doc)

    def state_digests(sim) -> dict[str, str]:
        return {
            "velocity": field_digest(sim.velocity),
            "pressure": field_digest(sim.pressure_field),
            "scalar": field_digest(sim.scalar_field),
            "mdot": field_digest(sim.mdot),
        }

    line = Timeline(sample_every_mark=False)
    spans = recorder.spans if recorder is not None else []
    if recorder is not None:
        # The reference kernel runs inside the step (at a hub event): give it
        # a span of its own so its time can be taken out of the layer table.
        line.meter.kernel = recorder.wrap(line.meter.kernel, REFERENCE_SPAN)
    setup_ranges = [[len(spans), 0]]
    sim, first_setup = line.timed(lambda: NaluWindSimulation(wl.mesh, config()))
    setups = [first_setup]
    setup_ranges[-1][1] = len(spans)

    unconverged: dict[int, int] = {}

    def on_solve(record=None, **_kw: Any) -> None:
        line.mark(sim.step_index)
        if record is not None and not record.converged:
            unconverged[sim.step_index] = unconverged.get(sim.step_index, 0) + 1

    sim.world.hub.subscribe("solve", on_solve)
    sim.world.hub.subscribe(
        "step_complete", lambda step=0, **_kw: line.mark(step - 1)
    )
    traffic, ops = sim.world.traffic, sim.world.ops
    before = (
        traffic.message_count(),
        traffic.message_bytes(),
        traffic.collective_count(),
        ops.total(),
    )
    run_range = [len(spans), 0]
    report, run_interval = line.timed(lambda: sim.run(n))
    run_range[1] = len(spans)
    after_ops = ops.total()

    t = clock()
    modeled = nli_step_times(report, get_machine(MACHINE))
    price_nli_s = clock() - t

    # Output checks, per operation (= time step).
    div = [float(v) for v in report.divergence_norms]
    finite = all(
        bool(np.isfinite(a).all())
        for a in (sim.velocity, sim.pressure_field, sim.scalar_field, sim.mdot)
    )
    failures = []
    for i in range(n):
        why = []
        if unconverged.get(i):
            why.append(f"{unconverged[i]} solve(s) not converged")
        if not (i < len(div) and div[i] <= DIVERGENCE_LIMIT):
            why.append(f"divergence norm {div[i] if i < len(div) else None}")
        if not finite:
            why.append("non-finite field")
        if why:
            failures.append({"op": f"step {i}", "why": "; ".join(why)})
    attempted = n
    state = state_digests(sim)

    its = {k: [int(i) for i in v] for k, v in report.solve_iterations.items()}
    counts = _sim_counts(sim, report, its, n, before, after_ops)
    counts["harness.modeled_nli_s"] = float(modeled.mean())
    total_nodes = report.total_nodes
    ring = sorted(os.listdir(ckpt_dir)) if os.path.isdir(ckpt_dir) else []
    if ring:
        counts["resilience.checkpoint_bytes"] = os.path.getsize(
            os.path.join(ckpt_dir, ring[-1])
        )
    del sim, report

    # Restart: a cold process-style restore from the ring, run to the same
    # step count, must reproduce the uninterrupted state bitwise.
    if ring:
        sim_r = NaluWindSimulation(
            wl.mesh, config(checkpoint_every=0, restart_from=ckpt_dir)
        )
        restart_steps = n - sim_r.step_index
        sim_r.run(n)
        attempted += restart_steps
        if restart_steps < 1 or state_digests(sim_r) != state:
            failures.append(
                {
                    "op": f"restart ({restart_steps} steps)",
                    "why": "restart state digest != uninterrupted"
                    if restart_steps >= 1
                    else "restart had no steps left to run",
                    "count": max(restart_steps, 1),
                }
            )
        del sim_r

    # Further set-ups, timed only (the first one above went on to run).
    for _ in range(0 if smoke else 2):
        setup_ranges.append([len(spans), 0])
        setups.append(
            line.timed(lambda: NaluWindSimulation(wl.mesh, config()))[1]
        )
        setup_ranges[-1][1] = len(spans)

    record = {
        "steps": n,
        "total_nodes": total_nodes,
        "setup_samples": [line.pair(iv) for iv in setups],
        "segments": line.segments(run_interval),
        "speed": line.speed_summary(),
        "attempted": attempted,
        "failures": failures,
        # Everything here must be bitwise equal in every repeat.
        "deterministic": {
            "state": state,
            "solve_iterations": its,
            "divergence_norms": [v.hex() for v in div],
            "modeled_nli_steps": [float(v).hex() for v in modeled],
            "counts": {k: float(v).hex() for k, v in sorted(counts.items())},
        },
        "counts": {k: float(v) for k, v in counts.items()},
        "host": {"harness.price_nli_s": price_nli_s},
    }
    if recorder is not None:
        record["spans"] = _sim_span_summary(spans, n, run_range, setup_ranges)
    return record


def _sim_counts(sim, report, its: dict, n: int, before: tuple, after_ops) -> dict:
    """Deterministic per-layer counts, read from the public report."""
    from repro.partition import balance_stats, edge_cut

    traffic, registry, amg = sim.world.traffic, sim.world.metrics, sim.amg_setups
    graph = sim.comp.node_graph()
    hits = registry.counter_total("assembly.plan_hits")
    rebuilds = registry.counter_total("assembly.plan_rebuilds")
    recovery = report.recovery or {}
    return {
        "comm.messages_per_step": (traffic.message_count() - before[0]) / n,
        "comm.message_bytes_per_step": (traffic.message_bytes() - before[1]) / n,
        "comm.collectives_per_step": (traffic.collective_count() - before[2]) / n,
        "comm.retries": registry.counter_total("comm.retries"),
        "amg.levels": amg[-1].num_levels if amg else 0,
        "amg.operator_complexity": (
            sum(s.operator_complexity for s in amg) / len(amg) if amg else 0.0
        ),
        "krylov.iters_momentum": sum(its.get("momentum", [])) / n,
        "krylov.iters_pressure": sum(its.get("pressure", [])) / n,
        "krylov.iters_scalar": sum(its.get("scalar", [])) / n,
        "krylov.nonconverged": sum(
            1
            for eq in report.telemetry.solves.values()
            for ok in eq["converged"]
            if not ok
        ),
        "overset.fringe_nodes": int(sim.comp.fringe_nodes().size),
        "partition.nnz_imbalance": balance_stats(graph, sim.comp.parts).imbalance,
        "partition.edge_cut": edge_cut(graph, sim.comp.parts),
        "assembly.plan_hits": hits / n,
        "assembly.plan_rebuilds": rebuilds / n,
        "assembly.plan_hit_ratio": hits / (hits + rebuilds) if hits + rebuilds else 0.0,
        "perf.flops_per_step": (after_ops.flops - before[3].flops) / n,
        "perf.kernel_bytes_per_step": (after_ops.bytes - before[3].bytes) / n,
        "perf.launches_per_step": (after_ops.launches - before[3].launches) / n,
        "resilience.solver_failures": recovery.get("failures", 0),
        "resilience.recoveries": sum(recovery.get("recoveries", {}).values()),
    }


def _layer_values(self_times: dict, per: float) -> dict[str, float]:
    """The ``*_self_s`` / ``*_calls`` per-layer metrics of a self-time table."""
    out = {}
    for name, _unit, _better in metrics.PER_LAYER:
        spans = metrics.spans_of(name)
        if spans is not None:
            field = 0 if name.endswith("_self_s") else 1
            out[name] = sum(self_times.get(s, (0.0, 0))[field] for s in spans) / per
    return out


def _sim_span_summary(
    spans: list[list], n: int, run_range: list[int], setup_ranges: list[list]
) -> dict:
    """Per-step self times of the main run, and what the plain set-ups cost."""
    lo, hi = run_range
    in_step = otrace.self_times(spans, "core.step", lo, hi)
    reference_s = in_step.pop(REFERENCE_SPAN, [0.0, 0])[0]
    setup_self: dict[str, float] = {}
    for a, b in setup_ranges:
        for name, (self_s, _calls) in otrace.self_times(spans, None, a, b).items():
            setup_self[name] = setup_self.get(name, 0.0) + self_s / len(setup_ranges)

    def mean(name: str) -> float:
        values = otrace.durations(spans, name)
        return sum(values) / len(values) if values else 0.0

    layers = _layer_values(in_step, n)
    layers.update(
        {
            # No set-up span has a traced child of its own kind, so self ==
            # inclusive for mesh generation and the partitioner.
            "mesh.generate_s": setup_self.get("mesh.generate", 0.0),
            "partition.partition_s": setup_self.get("partition.multilevel", 0.0)
            + setup_self.get("partition.rcb", 0.0),
            "core.construct_self_s": setup_self.get("core.construct", 0.0),
            "resilience.checkpoint_write_s": mean("resilience.checkpoint_write"),
            "resilience.restart_load_s": mean("resilience.restart_load"),
            "obs.collect_telemetry_s": sum(
                otrace.durations(spans, "obs.collect_telemetry", lo, hi)
            ),
        }
    )
    return {
        "layers": layers,
        "all": otrace.self_times(spans),
        "step_total_s": (
            sum(otrace.durations(spans, "core.step", lo, hi)) - reference_s
        )
        / n,
        "step_self_sum_s": sum(v[0] for v in in_step.values()) / n,
    }


# -- campaign workload --------------------------------------------------------


def _campaign_pass(
    wl: Workload, seed: int, workdir: str, smoke: bool, recorder
) -> dict:
    from repro import NaluWindSimulation
    from repro.campaign import Campaign, CampaignSpec, ResultStore
    from repro.obs.hooks import ObserverHub

    steps, shape = wl.shape(smoke)
    spec = CampaignSpec(
        name="picard_sweep",
        workload=wl.mesh,
        steps=steps,
        seeds=tuple(seed + i for i in range(shape["n_seeds"])),
        base=shape["base"],
        grid=shape["grid"],
    )
    store_dir = os.path.join(workdir, "store")

    def sweep(root: str, hub=None) -> tuple[Any, dict]:
        campaign = Campaign(
            spec, os.path.join(workdir, root), workers=1, hub=hub,
            store_dir=store_dir,
        )
        return campaign, campaign.run()

    # Jobs are seconds apart, so every job event takes a speed sample.
    line = Timeline(sample_every_mark=True)
    statuses: list[str] = []
    hub = ObserverHub()

    def on_job(status: str = "", **_kw: Any) -> None:
        line.mark(len(statuses) // 2)  # running, done, running, done, ...
        statuses.append(status)

    hub.subscribe("campaign_job", on_job)
    (cold, summary), cold_interval = line.timed(lambda: sweep("cold", hub))
    n_jobs = summary["total_jobs"]
    cold_spans = list(recorder.spans) if recorder is not None else []
    first = {
        status: (cold_interval[0], t)
        for status, (_g, t, _r) in reversed(list(zip(statuses, line.marks)))
    }

    # The coordinator cannot see into its worker, so the simulation set-up
    # every job pays before its first step is measured here, on job 0's
    # resolved config, as for the simulation workloads.
    job_setups = [
        line.timed(
            lambda: NaluWindSimulation(wl.mesh, cold.jobs[0].build_config())
        )[1]
        for _ in range(1 if smoke else 3)
    ]
    warm = [
        line.timed(lambda: sweep(f"warm{i}"))
        for i in range(1 if smoke else 3)
    ]
    warm_hits = warm[0][0][1]["cache_hits"]

    store = ResultStore(store_dir)
    docs = {job.digest(): store.get(job.digest()) for job in cold.jobs}
    done = summary["status_counts"].get("done", 0)
    failures = []
    if done != n_jobs:
        failures.append(
            {
                "op": "cold sweep",
                "why": f"status counts {summary['status_counts']}",
                "count": n_jobs - done,
            }
        )
    if warm_hits != n_jobs:
        failures.append(
            {
                "op": "warm sweep",
                "why": f"{warm_hits}/{n_jobs} cache hits",
                "count": n_jobs - warm_hits,
            }
        )
    job_walls = [e.get("wall_s") or 0.0 for e in summary["jobs"].values()]
    counts = {
        "campaign.cache_hit_ratio": warm_hits / n_jobs,
        "campaign.plan_shared": summary["plan_shared"],
        "campaign.retries": summary["retries"],
    }
    segments = line.segments(cold_interval)
    # No job ran or none finished: KeyError, the pass dies, all ops fail.
    to_running = line.pair(first["running"])
    record = {
        "steps": steps,
        "jobs": n_jobs,
        "node_steps": sum(
            doc["total_nodes"] * steps for doc in docs.values() if doc
        ),
        "setup_samples": [
            [a + b for a, b in zip(to_running, line.pair(iv))]
            for iv in job_setups
        ],
        "first_result_s": line.pair(first["done"]),
        "segments": segments,
        "warm_sweep_samples": [line.pair(iv) for _res, iv in warm],
        "speed": line.speed_summary(),
        "attempted": 2 * n_jobs,
        "failures": failures,
        "deterministic": {
            "stored": {
                d: hashlib.sha256(store.get_bytes(d) or b"").hexdigest()
                for d in sorted(docs)
            },
            "counts": {k: float(v).hex() for k, v in sorted(counts.items())},
        },
        "counts": {k: float(v) for k, v in counts.items()},
        "host": {
            # Not summary["wall_s"]: that includes the reference samples.
            "campaign.overhead_per_job_s": (
                sum(raw for _g, _cal, raw in segments) - sum(job_walls)
            )
            / n_jobs,
        },
    }
    if recorder is not None:
        layers = _layer_values(otrace.self_times(cold_spans), 1)
        layers["campaign.manifest_bytes_written"] = sum(
            s[4]
            for s in cold_spans
            if s[0] == "campaign.manifest_write" and len(s) > 4
        )
        record["spans"] = {
            "layers": layers,
            "all": otrace.self_times(recorder.spans),
        }
    return record
