"""Plain-text rendering of the reproduced tables and figures.

Every bench prints the same rows/series the paper's table or figure
reports, as aligned text; the harness also writes them under
``benchmarks/results/`` so EXPERIMENTS.md can quote them.
"""

from __future__ import annotations

import os
from typing import Sequence

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(__file__)))),
    "benchmarks",
    "results",
)


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence],
    note: str = "",
) -> str:
    """Render an aligned text table."""
    cells = [[str(h) for h in headers]] + [
        [f"{v:.4g}" if isinstance(v, float) else str(v) for v in row]
        for row in rows
    ]
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    lines = [title, "=" * len(title)]
    for i, row in enumerate(cells):
        lines.append(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines)


def emit(name: str, text: str) -> str:
    """Print a rendered table and persist it under benchmarks/results/."""
    print()
    print(text)
    try:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
            fh.write(text + "\n")
    except OSError:  # pragma: no cover - read-only checkouts
        pass
    return text


def loglog_chart(
    title: str,
    series_list,
    width: int = 64,
    height: int = 18,
) -> str:
    """ASCII log-log chart of strong-scaling curves (x = nodes, y = s/step).

    A text rendition of the paper's scaling figures; each series gets one
    marker character.
    """
    import math

    markers = "o*x+#@%&"
    xs = [x for s in series_list for x in s.nodes if x > 0]
    ys = [y for s in series_list for y in s.mean if y > 0]
    if not xs or not ys:
        return title + "\n(no data)"
    lx0, lx1 = math.log10(min(xs)), math.log10(max(xs))
    ly0, ly1 = math.log10(min(ys)), math.log10(max(ys))
    lx1 += 1e-9
    ly1 += 1e-9
    grid = [[" "] * width for _ in range(height)]
    for si, s in enumerate(series_list):
        m = markers[si % len(markers)]
        for x, y in zip(s.nodes, s.mean):
            if x <= 0 or y <= 0:
                continue
            cx = int((math.log10(x) - lx0) / (lx1 - lx0) * (width - 1))
            cy = int((math.log10(y) - ly0) / (ly1 - ly0) * (height - 1))
            grid[height - 1 - cy][cx] = m
    lines = [title, "=" * len(title)]
    lines.append(f"{10 ** ly1:9.3g} +" + "-" * width + "+")
    for row in grid:
        lines.append(" " * 10 + "|" + "".join(row) + "|")
    lines.append(f"{10 ** ly0:9.3g} +" + "-" * width + "+")
    lines.append(
        " " * 11 + f"{10 ** lx0:<10.3g}"
        + " " * max(width - 20, 0)
        + f"{10 ** lx1:>10.3g}  [nodes]"
    )
    legend = "   ".join(
        f"{markers[i % len(markers)]} = {s.label}"
        for i, s in enumerate(series_list)
    )
    lines.append("  " + legend)
    return "\n".join(lines)


def series_table(
    title: str,
    series_list,
    note: str = "",
) -> str:
    """Render strong-scaling curves side by side (x = Summit/Eagle nodes)."""
    headers = ["nodes", "ranks"]
    for s in series_list:
        headers += [f"{s.label} mean [s]", f"{s.label} std"]
    rows = []
    base = series_list[0]
    for i in range(len(base.nodes)):
        row: list = [f"{base.nodes[i]:.3g}", base.ranks[i]]
        for s in series_list:
            row += [f"{s.mean[i]:.4g}", f"{s.std[i]:.2g}"]
        rows.append(row)
    slopes = ", ".join(f"{s.label}: {s.slope():.2f}" for s in series_list)
    note = (note + "\n" if note else "") + f"log-log slopes: {slopes}"
    return format_table(title, headers, rows, note)
