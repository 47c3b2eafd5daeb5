"""Unified observability layer: spans, metrics, hooks, run telemetry.

The paper's analysis is entirely instrumentation-driven: per-phase and
per-equation breakdowns (Figs. 6-7), strong-scaling NLI statistics
(Figs. 3/8/9/11), and AMG hierarchy quality (grid/operator complexity,
§4.1).  This package gathers every signal the reproduction produces into
one structured stream:

* :class:`~repro.obs.tracer.Tracer` — nested, labeled wall-clock spans;
  the world owns one and ``SimWorld.phase_scope`` opens every phase's
  span on it;
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  histograms that solvers, traffic logs, and AMG setup publish into,
  mergeable across simulated ranks;
* :class:`~repro.obs.hooks.ObserverHub` — a callback protocol so tests
  and benchmarks attach observers without monkey-patching;
* :class:`~repro.obs.telemetry.RunTelemetry` — the machine-readable run
  report (``python -m repro trace``), JSON round-trippable;
* :mod:`~repro.obs.export` — flat/tree text renderers and JSON writers;
* :class:`~repro.obs.timeline.TimelineProfiler` — per-rank simulated
  timelines with comm-wait attribution and critical-path extraction,
  plus a Chrome-trace exporter (Perfetto-loadable);
* :class:`~repro.obs.profile.RunProfile` — the ``repro.profile/1``
  document (``python -m repro profile``), JSON round-trippable.

The package deliberately imports nothing from the rest of ``repro`` so
any layer (comm, krylov, amg, core, harness) can depend on it without
cycles.
"""

from repro.obs.export import (
    render_flat_report,
    render_span_tree,
    write_telemetry_json,
)
from repro.obs.hooks import ObserverHub
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import (
    PROFILE_SCHEMA,
    RunProfile,
    collect_run_profile,
    render_profile_summary,
)
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA,
    AMGSetupStats,
    RunTelemetry,
    collect_run_telemetry,
)
from repro.obs.timeline import Segment, TimelineProfiler, to_chrome_trace
from repro.obs.tracer import Span, Tracer

__all__ = [
    "AMGSetupStats",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObserverHub",
    "PROFILE_SCHEMA",
    "RunProfile",
    "RunTelemetry",
    "Segment",
    "Span",
    "TELEMETRY_SCHEMA",
    "TimelineProfiler",
    "Tracer",
    "collect_run_profile",
    "collect_run_telemetry",
    "render_flat_report",
    "render_profile_summary",
    "render_span_tree",
    "to_chrome_trace",
    "write_telemetry_json",
]
