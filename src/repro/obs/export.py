"""Text views of run telemetry.

Three human-readable views of one :class:`~repro.obs.telemetry.RunTelemetry`
document:

* :func:`render_span_tree` — the nested timeline (hypre's ``-print_level``
  style), one line per span with duration and self-time;
* :func:`render_flat_report` — flat per-phase totals (and memory
  high-waters, when measured) plus convergence and AMG quality summaries,
  the quick-look companion of Figs. 6-7;
* :func:`render_profile_summary` — the ``profile`` section: per-rank
  accounting, per-phase imbalance and wait, the critical path and the
  roofline join.
"""

from __future__ import annotations

from typing import Any

from repro.obs.telemetry import RunTelemetry
from repro.obs.tracer import Span


def _tree_lines(
    span: dict[str, Any], depth: int, out: list[str], max_depth: int
) -> None:
    if max_depth >= 0 and depth > max_depth:
        return
    s = Span.from_dict(span)
    pad = "  " * depth
    attrs = (
        " [" + ", ".join(f"{k}={v}" for k, v in s.attrs.items()) + "]"
        if s.attrs
        else ""
    )
    out.append(
        f"{pad}{s.name:<{max(40 - 2 * depth, 8)}s} "
        f"{s.duration * 1e3:10.3f} ms  (self {s.self_time() * 1e3:.3f} ms)"
        f"{attrs}"
    )
    for c in span.get("children", []):
        _tree_lines(c, depth + 1, out, max_depth)


def render_span_tree(
    telemetry: RunTelemetry, max_depth: int = -1
) -> str:
    """Indented span timeline (``max_depth < 0`` renders everything)."""
    lines = [
        f"span tree: {telemetry.workload} "
        f"({telemetry.nranks} ranks, {telemetry.n_steps} steps)"
    ]
    lines.append("-" * len(lines[0]))
    for root in telemetry.spans:
        _tree_lines(root, 0, lines, max_depth)
    if len(lines) == 2:
        lines.append("(no spans recorded)")
    return "\n".join(lines)


#: Phases listed by memory high-water in :func:`render_flat_report`.
MEMORY_TOP = 5


def render_flat_report(telemetry: RunTelemetry) -> str:
    """Flat per-phase totals (and, for a run traced under
    :mod:`tracemalloc`, the :data:`MEMORY_TOP` phases of highest memory
    high-water) + convergence + AMG quality summary."""
    t = telemetry
    lines = [
        f"run telemetry: {t.workload} ({t.nranks} ranks, "
        f"{t.n_steps} steps, {t.total_nodes} nodes)"
    ]
    lines.append("=" * len(lines[0]))

    lines.append("phase                                   total [s]   count")
    for name in sorted(t.phases):
        ph = t.phases[name]
        lines.append(
            f"  {name:<36s} {ph['total_s']:10.4f}  {int(ph['count']):6d}"
        )

    high = {
        name: ph["high_water_bytes"]
        for name, ph in t.phases.items()
        if "high_water_bytes" in ph
    }
    if high:
        lines.append("phase memory high-water above entry       [MiB]")
        for name in sorted(high, key=high.get, reverse=True)[:MEMORY_TOP]:
            lines.append(f"  {name:<36s} {high[name] / 2**20:10.2f}")

    lines.append("equation       solves  mean iters  last residual")
    for eq in sorted(t.solves):
        s = t.solves[eq]
        its = s.get("iterations", [])
        norms = s.get("residual_norms", [])
        mean_it = sum(its) / len(its) if its else 0.0
        last = norms[-1] if norms else float("nan")
        lines.append(
            f"  {eq:<12s} {len(its):6d}  {mean_it:10.2f}  {last:14.3e}"
        )

    if t.amg_setups:
        last = t.amg_setups[-1]
        lines.append(
            f"amg: {len(t.amg_setups)} setups; last hierarchy "
            f"{last['num_levels']} levels, "
            f"grid complexity {last['grid_complexity']:.2f}, "
            f"operator complexity {last['operator_complexity']:.2f}"
        )

    tr = t.traffic
    if tr:
        lines.append(
            f"traffic: {tr.get('total_messages', 0)} messages / "
            f"{tr.get('total_message_bytes', 0)} B p2p, "
            f"{tr.get('total_collectives', 0)} collectives"
        )
    return "\n".join(lines)


def render_profile_summary(telemetry: RunTelemetry, top: int = 8) -> str:
    """Quick look at the ``profile`` section of one run's telemetry."""
    t = telemetry
    p = t.profile
    s = p["summary"]
    acc = s["accounted_s"]

    def frac(key: str) -> float:
        return 100.0 * s[key] / acc if acc > 0.0 else 0.0

    lines = [
        f"profile: {t.workload} ({t.nranks} ranks, {t.n_steps} steps) "
        f"on {p['machine']}"
    ]
    lines.append("=" * len(lines[0]))
    lines.append(
        f"wall {p['wall_time_s']:.6f} s | rank-seconds: "
        f"compute {frac('compute_s'):.1f}%  wait {frac('wait_s'):.1f}%  "
        f"transfer {frac('transfer_s'):.1f}%  "
        f"(comm fraction {s['comm_fraction']:.3f})"
    )

    lines.append("rank   compute [s]      wait [s]  transfer [s]  segments")
    for r in range(t.nranks):
        rt = p["ranks"][str(r)]
        lines.append(
            f"  {r:<4d} {rt['compute_s']:11.6f} {rt['wait_s']:13.6f} "
            f"{rt['transfer_s']:13.6f} {int(rt['segments']):9d}"
        )

    lines.append(
        "phase                                 mean [s]   imb  straggler"
        "   wait [s]  syncs"
    )
    for label in sorted(p["phases"]):
        ph = p["phases"][label]
        lines.append(
            f"  {label:<34s} {ph['compute_mean_s']:9.6f} "
            f"{ph['imbalance']:5.2f} {int(ph['straggler_rank']):10d} "
            f"{ph['wait_s']:10.6f} {int(ph['syncs']):6d}"
        )

    path = p["critical_path"]
    segs = path["segments"]
    lines.append(
        f"critical path: {len(segs)} segments, {path['total_s']:.6f} s "
        f"(wall {p['wall_time_s']:.6f} s)"
    )
    for g in sorted(segs, key=lambda g: -g["duration_s"])[:top]:
        lines.append(
            f"  rank {g['rank']:<3d} {g['kind']:<9s} "
            f"{g['phase']:<30s} {g['duration_s']:.6f} s"
        )

    if p["roofline"]:
        lines.append("roofline (achieved fraction of machine roof, by phase):")
        for label in sorted(p["roofline"]):
            entry = p["roofline"][label]
            ks = ", ".join(
                f"{k}={v['achieved_bw_frac']:.2f}bw"
                if v["bound"] == "bandwidth"
                else (
                    f"{k}={v['achieved_flop_frac']:.2f}fl"
                    if v["bound"] == "flops"
                    else f"{k}=launch"
                )
                for k, v in sorted(entry["kernels"].items())
            )
            lines.append(
                f"  {label:<34s} coverage {entry['coverage']:5.2f}  [{ks}]"
            )
    return "\n".join(lines)
