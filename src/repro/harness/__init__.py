"""Benchmark harness: strong-scaling pricing, report rendering."""

from repro.harness.scaling import (
    NLISeries,
    default_work_scale,
    equation_breakdown,
    nli_series,
    nli_step_times,
)
from repro.harness.projection import (
    CapabilityPoint,
    paper_projection,
    project_capability,
)
from repro.harness.report import (
    emit,
    format_table,
    loglog_chart,
    series_table,
)

__all__ = [
    "CapabilityPoint",
    "NLISeries",
    "default_work_scale",
    "emit",
    "equation_breakdown",
    "format_table",
    "loglog_chart",
    "nli_series",
    "nli_step_times",
    "paper_projection",
    "project_capability",
    "series_table",
]
