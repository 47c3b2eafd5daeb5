"""Structured findings of repro-lint.

Every rule in :mod:`repro.analysis.lint` reports through one record type
so the CLI, the CI gate, and the telemetry counters all consume the same
stream.  A finding names the rule, where it fired (``path:line``), a
severity, and a human-readable message.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterable

from repro.obs.metrics import MetricsRegistry

#: Severity levels, most severe first.
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Finding:
    """One lint finding."""

    rule: str
    path: str
    line: int
    severity: str
    message: str
    #: Enclosing function qualname (``Class.method``); None at module
    #: level.
    qualname: str | None = None

    def to_dict(self) -> dict:
        """JSON-ready representation (an absent qualname is dropped)."""
        d = asdict(self)
        if self.qualname is None:
            d.pop("qualname")
        return d


@dataclass
class AnalysisReport:
    """Aggregated result of one ``repro analyze`` invocation."""

    findings: list[Finding] = field(default_factory=list)
    #: Findings silenced by an inline ``# repro: allow(RLxxx)`` pragma.
    suppressed: list[Finding] = field(default_factory=list)

    def errors(self) -> list[Finding]:
        """Findings at ``error`` severity."""
        return [f for f in self.findings if f.severity == "error"]

    def exit_code(self, strict: bool = False) -> int:
        """0 when clean; 1 when errors (or, under strict, any finding)."""
        gating = self.findings if strict else self.errors()
        return 1 if gating else 0

    def extend(self, other: "AnalysisReport") -> None:
        """Fold another report into this one."""
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)

    def publish(self, metrics: MetricsRegistry) -> None:
        """Count findings into ``analysis.*`` telemetry counters.

        ``analysis.findings{rule=...}`` counts live findings;
        ``analysis.suppressed{rule=...}`` counts pragma-silenced ones,
        so suppression debt stays visible in the exported telemetry
        stream.
        """
        for f in self.findings:
            metrics.counter("analysis.findings", rule=f.rule).inc()
        for f in self.suppressed:
            metrics.counter("analysis.suppressed", rule=f.rule).inc()


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Stable presentation order: severity, then path, line, rule."""
    rank = {s: i for i, s in enumerate(SEVERITIES)}
    return sorted(
        findings,
        key=lambda f: (rank.get(f.severity, len(SEVERITIES)),
                       f.path, f.line, f.rule),
    )


def render_text(report: AnalysisReport) -> str:
    """Human-readable one-line-per-finding rendering."""
    lines = [
        f"{f.path}:{f.line}: {f.rule} [{f.severity}] {f.message}"
        for f in sort_findings(report.findings)
    ]
    n_err = len(report.errors())
    lines.append(
        f"{len(report.findings)} finding(s) "
        f"({n_err} error(s), {len(report.suppressed)} suppressed)"
    )
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    """Machine-readable rendering (schema ``repro.analysis/4``).

    ``/4`` over ``/3``: the ``dynamic`` section and the per-finding
    ``kernel`` key are gone with the KS replay harness, and no ``RL009``
    or ``KSxxx`` finding can appear.
    """
    metrics = MetricsRegistry()
    report.publish(metrics)
    doc = {
        "schema": "repro.analysis/4",
        "findings": [f.to_dict() for f in sort_findings(report.findings)],
        "suppressed": [
            f.to_dict() for f in sort_findings(report.suppressed)
        ],
        "metrics": metrics.as_dict(),
    }
    return json.dumps(doc, indent=2, sort_keys=True)
