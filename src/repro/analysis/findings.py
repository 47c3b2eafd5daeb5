"""Structured findings shared by repro-lint and the kernel sanitizer.

Every check in :mod:`repro.analysis` — static AST rules (``RLxxx``) and
dynamic sanitizer checks (``KSxxx``) — reports through one record type so
the CLI, the CI gate, and the telemetry counters all consume the same
stream.  A finding names the rule, where it fired (``path:line`` for lint,
a kernel label for the sanitizer), a severity, and a human-readable
message.
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
    """One analysis finding (static or dynamic)."""

    rule: str
    path: str
    line: int
    severity: str
    message: str
    #: Dynamic findings name the offending kernel instead of a source line.
    kernel: str | None = None
    #: Enclosing function qualname for static findings (``Class.method``);
    #: None for module-level and dynamic findings.
    qualname: str | None = None

    def location(self) -> str:
        """``path:line`` for lint findings, ``kernel:<name>`` for dynamic."""
        if self.kernel is not None:
            return f"kernel:{self.kernel}"
        return f"{self.path}:{self.line}"

    def to_dict(self) -> dict:
        """JSON-ready representation (drops the unused kernel/path half)."""
        d = asdict(self)
        if self.kernel is None:
            d.pop("kernel")
        if self.qualname is None:
            d.pop("qualname")
        return d


@dataclass
class AnalysisReport:
    """Aggregated result of one ``repro analyze`` invocation."""

    findings: list[Finding] = field(default_factory=list)
    #: Findings silenced by an inline ``# repro: allow(RLxxx)`` pragma.
    suppressed: list[Finding] = field(default_factory=list)
    #: Dynamic-harness bookkeeping (checks run, atomic deviation stats).
    dynamic_stats: dict = field(default_factory=dict)

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
        self.dynamic_stats.update(other.dynamic_stats)

    def publish_metrics(self, metrics: MetricsRegistry) -> None:
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
        f"{f.location()}: {f.rule} [{f.severity}] {f.message}"
        for f in sort_findings(report.findings)
    ]
    n_err = len(report.errors())
    lines.append(
        f"{len(report.findings)} finding(s) "
        f"({n_err} error(s), {len(report.suppressed)} suppressed)"
    )
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    """Machine-readable rendering (schema ``repro.analysis/3``).

    ``/3`` over ``/2``: the ``baselined`` list is gone with the baseline
    mechanism (pragmas are the one suppression), and no ``RL008``
    finding can appear.
    """
    metrics = MetricsRegistry()
    report.publish_metrics(metrics)
    doc = {
        "schema": "repro.analysis/3",
        "findings": [f.to_dict() for f in sort_findings(report.findings)],
        "suppressed": [
            f.to_dict() for f in sort_findings(report.suppressed)
        ],
        "dynamic": report.dynamic_stats,
        "metrics": metrics.as_dict(),
    }
    return json.dumps(doc, indent=2, sort_keys=True)
