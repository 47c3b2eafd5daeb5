"""Machine-readable run telemetry.

:class:`RunTelemetry` is the schema-stable JSON document that
``python -m repro trace`` emits and ``benchmarks/check_telemetry_regression.py``
diffs: nested spans, per-equation phase totals, per-rank traffic, Krylov
iteration/residual histories, AMG hierarchy quality, the metrics
snapshot, the run's physics diagnostics and, when the timeline profiler
ran, the per-rank ``profile`` section — everything the paper's figures
consume, in one artifact.

:func:`collect_run_telemetry` builds the document from a finished
:class:`~repro.core.simulation.NaluWindSimulation` by *pulling* from the
existing instrumentation objects (the world's tracer and per-phase wall
record, traffic log, op recorder, solve records, AMG setup stats,
timeline profiler); it is duck-typed so this module keeps zero imports
from the rest of ``repro``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any

#: Version tag embedded in every exported document.  Bump only on
#: incompatible layout changes; consumers (the regression checker, the
#: figure scripts) key off it.
TELEMETRY_SCHEMA = "repro.telemetry/1"


@dataclass
class AMGSetupStats:
    """Quality metrics of one AMG hierarchy build (paper §4.1 / Table).

    ``levels`` lists per-level ``{"rows", "nnz", "row_frac", "nnz_frac"}``
    where the fractions are relative to the finest level, so cumulative
    grid/operator complexity per level can be read off directly.
    """

    num_levels: int
    grid_complexity: float
    operator_complexity: float
    levels: list[dict[str, float]] = field(default_factory=list)

    @classmethod
    def from_level_sizes(
        cls, sizes: list[tuple[int, int]]
    ) -> "AMGSetupStats":
        """Build from ``[(rows, nnz), ...]`` finest-first."""
        n0 = max(sizes[0][0], 1)
        nnz0 = max(sizes[0][1], 1)
        levels = [
            {
                "rows": int(n),
                "nnz": int(nnz),
                "row_frac": n / n0,
                "nnz_frac": nnz / nnz0,
            }
            for n, nnz in sizes
        ]
        return cls(
            num_levels=len(sizes),
            grid_complexity=sum(n for n, _ in sizes) / n0,
            operator_complexity=sum(z for _, z in sizes) / nnz0,
            levels=levels,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "AMGSetupStats":
        """Inverse of :meth:`to_dict`."""
        return cls(
            num_levels=int(d["num_levels"]),
            grid_complexity=float(d["grid_complexity"]),
            operator_complexity=float(d["operator_complexity"]),
            levels=[dict(l) for l in d.get("levels", [])],
        )


@dataclass
class RunTelemetry:
    """One run's complete telemetry, JSON round-trippable.

    Attributes map 1:1 onto the exported document; see
    ``docs/observability.md`` for the metric -> paper-figure mapping.
    """

    schema: str = TELEMETRY_SCHEMA
    workload: str = ""
    nranks: int = 0
    n_steps: int = 0
    total_nodes: int = 0
    config: dict[str, Any] = field(default_factory=dict)
    #: Nested span forest (see :meth:`repro.obs.tracer.Span.to_dict`).
    spans: list[dict[str, Any]] = field(default_factory=list)
    #: Flat per-phase wall clock: ``label -> {"total_s", "count"}``, plus
    #: ``"high_water_bytes"`` (traced memory above the phase's entry, its
    #: largest) for phases measured under :mod:`tracemalloc`.
    phases: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Per-equation convergence: iterations / norms / histories per solve.
    solves: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Message/collective accounting, total / per-phase / per-rank.
    traffic: dict[str, Any] = field(default_factory=dict)
    #: Busiest-rank kernel work per phase (flops / bytes / launches).
    ops: dict[str, dict[str, float]] = field(default_factory=dict)
    #: AMG hierarchy builds, in setup order.
    amg_setups: list[dict[str, Any]] = field(default_factory=list)
    #: MetricsRegistry snapshot (counters / gauges / histograms).
    metrics: dict[str, Any] = field(default_factory=dict)
    #: Recovery summary (see
    #: :func:`repro.resilience.policy.summarize_events`).  Additive field:
    #: documents without it load as clean runs, so the schema tag stays
    #: ``repro.telemetry/1``.
    resilience: dict[str, Any] = field(default_factory=dict)
    #: Per-rank timeline profile (see :func:`collect_run_profile`);
    #: ``{}`` when ``config.profile`` is off.  Additive, like
    #: ``resilience``.
    profile: dict[str, Any] = field(default_factory=dict)
    divergence_norms: list[float] = field(default_factory=list)
    peak_alloc_bytes: float = 0.0

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict document (deep-copied via JSON types only)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunTelemetry":
        """Inverse of :meth:`to_dict`; rejects unknown schemas."""
        schema = d.get("schema", "")
        if schema != TELEMETRY_SCHEMA:
            raise ValueError(
                f"unsupported telemetry schema {schema!r}; "
                f"expected {TELEMETRY_SCHEMA!r}"
            )
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in known})

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunTelemetry":
        """Parse a document produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    # -- convenience queries -------------------------------------------------

    def phase_total(self, label: str) -> float:
        """Wall seconds of one phase label (0.0 when absent)."""
        return float(self.phases.get(label, {}).get("total_s", 0.0))

    def mean_iterations(self, equation: str) -> float:
        """Mean Krylov iterations per solve for one equation."""
        its = self.solves.get(equation, {}).get("iterations", [])
        return sum(its) / len(its) if its else 0.0


def _traffic_section(traffic: Any, nranks: int) -> dict[str, Any]:
    """Pull the TrafficLog aggregates into JSON shape.

    Totals are *logical* message counts (bulk-recorded batches expanded),
    matching the per-phase and per-rank aggregates, not the length of the
    detailed record list.
    """
    per_rank = traffic.rank_totals()
    return {
        "total_messages": traffic.message_count(),
        "total_message_bytes": traffic.message_bytes(),
        "total_collectives": traffic.collective_count(),
        "total_collective_bytes": traffic.collective_bytes(),
        "per_phase": {
            ph: {
                "messages": traffic.message_count(ph),
                "message_bytes": traffic.message_bytes(ph),
                "collectives": traffic.collective_count(ph),
                "collective_bytes": traffic.collective_bytes(ph),
                "max_rank_messages": traffic.max_rank_messages(ph),
                "max_rank_bytes": traffic.max_rank_bytes(ph),
            }
            for ph in traffic.phases()
        },
        # JSON object keys are strings; keep every rank present even
        # when silent so per-rank series align across runs.
        "per_rank": {
            str(r): {
                "messages": per_rank.get(r, {}).get("messages", 0),
                "bytes": per_rank.get(r, {}).get("bytes", 0),
            }
            for r in range(nranks)
        },
    }


def _solves_section(systems: Any) -> dict[str, Any]:
    """Per-equation convergence records."""
    out: dict[str, Any] = {}
    for eq in systems:
        recs = eq.solve_records
        out[eq.name] = {
            "iterations": [r.iterations for r in recs],
            "residual_norms": [r.residual_norm for r in recs],
            "converged": [bool(r.converged) for r in recs],
            "residual_histories": [
                list(r.residual_history) for r in recs
            ],
        }
    return out


def collect_run_profile(sim: Any) -> dict[str, Any]:
    """The ``profile`` section of a finished simulation's telemetry.

    ``{}`` when ``sim.world.profiler`` is None.  Otherwise the
    :class:`~repro.obs.timeline.TimelineProfiler` is finalized (through
    ``sim.roofline()``, which joins the kernel tallies with it) and the
    section holds per-rank time accounting (compute / wait / transfer),
    per-phase load imbalance and comm wait, exchange statistics by kind,
    the cross-rank critical path, the roofline join and run-level
    totals.  The segment lists stay on the profiler (the Chrome-trace
    exporter reads them there), so the section stays small enough to
    diff.
    """
    prof = sim.world.profiler
    if prof is None:
        return {}
    roofline = sim.roofline()

    totals = prof.rank_totals()
    compute = sum(rt["compute_s"] for rt in totals)
    wait = sum(rt["wait_s"] for rt in totals)
    transfer = sum(rt["transfer_s"] for rt in totals)
    accounted = compute + wait + transfer

    cstats = prof.phase_compute_stats()
    comm = prof.phase_comm_stats()
    phases: dict[str, dict[str, float]] = {}
    for label in sorted(set(cstats) | set(comm)):
        c = cstats.get(label, {})
        x = comm.get(label, {})
        phases[label] = {
            "compute_max_s": c.get("max_s", 0.0),
            "compute_mean_s": c.get("mean_s", 0.0),
            "compute_min_s": c.get("min_s", 0.0),
            "imbalance": c.get("imbalance", 1.0),
            "straggler_rank": c.get("straggler_rank", 0.0),
            "wait_s": x.get("wait_s", 0.0),
            "transfer_s": x.get("transfer_s", 0.0),
            "syncs": x.get("syncs", 0.0),
            "collectives": x.get("collectives", 0.0),
        }

    path = prof.critical_path()
    syncs = float(prof.sync_count())
    return {
        "machine": prof.pricer.machine.name,
        # Simulated wall time: the latest rank's clock [s].
        "wall_time_s": prof.wall_time,
        "ranks": {str(r): dict(rt) for r, rt in enumerate(totals)},
        "phases": phases,
        "exchanges": {"syncs": syncs, "by_kind": prof.exchange_stats()},
        "critical_path": {
            "total_s": sum(seg["duration_s"] for seg in path),
            "segments": path,
        },
        "roofline": roofline,
        "summary": {
            "compute_s": compute,
            "wait_s": wait,
            "transfer_s": transfer,
            "accounted_s": accounted,
            "comm_fraction": (
                (wait + transfer) / accounted if accounted > 0.0 else 0.0
            ),
            "wait_fraction": wait / accounted if accounted > 0.0 else 0.0,
            "syncs": syncs,
            # Split halo rounds and the rank-seconds of wait the overlap
            # removed relative to synchronous exchanges (0 when every
            # exchange ran synchronously).
            "overlap_rounds": float(prof.overlap_rounds),
            "overlap_saved_wait_s": float(prof.overlap_saved_s),
        },
    }


def collect_run_telemetry(sim: Any, report: Any = None) -> RunTelemetry:
    """Assemble a :class:`RunTelemetry` from a finished simulation.

    Args:
        sim: a :class:`~repro.core.simulation.NaluWindSimulation` after
            ``run()``/``step()`` calls (duck-typed).
        report: optional :class:`~repro.core.simulation.SimulationReport`
            for run-level fields; falls back to ``sim`` state.

    The traffic log and op recorder publish their aggregates into the
    world's metrics registry here (pull-style, so the hot paths never
    touch the registry).
    """
    world = sim.world
    cfg = sim.config

    world.traffic.publish(world.metrics)
    world.ops.publish(world.metrics)

    resilience = (
        report.recovery if report is not None else sim.transaction.summary()
    )
    n_steps = (
        report.n_steps if report is not None else len(sim.step_snapshots)
    )
    divergence = (
        list(report.divergence_norms)
        if report is not None
        else list(sim.divergence_norms)
    )
    return RunTelemetry(
        workload=sim.workload_name,
        nranks=world.size,
        n_steps=int(n_steps),
        total_nodes=int(sim.comp.n),
        config={
            "partition_method": cfg.partition_method,
            "assembly_variant": cfg.assembly_variant,
            "assembly_mode": cfg.assembly_mode,
            "picard_iterations": cfg.picard_iterations,
            "dt": cfg.dt,
        },
        spans=sim.tracer.to_dicts(),
        phases={label: dict(w) for label, w in world.phase_wall.items()},
        solves=_solves_section(sim.systems),
        traffic=_traffic_section(world.traffic, world.size),
        ops={
            ph: {
                "flops": world.ops.max_rank_tally(ph).flops,
                "bytes": world.ops.max_rank_tally(ph).bytes,
                "launches": float(world.ops.max_rank_tally(ph).launches),
            }
            for ph in world.ops.phases()
        },
        amg_setups=[s.to_dict() for s in sim.amg_setups],
        metrics=world.metrics.as_dict(),
        resilience=dict(resilience),
        profile=collect_run_profile(sim),
        divergence_norms=divergence,
        peak_alloc_bytes=float(world.ops.peak_alloc()),
    )
