"""``python -m repro analyze`` — run repro-lint.

Exit status is the gate contract: 0 when the tree is clean (after pragma
suppression), 1 when findings remain — errors only by default, every
finding under ``--strict`` — and 2 when none of the given paths exists
(a gate pointed at a mistyped path must not pass by analysing nothing).
``--format json`` emits the ``repro.analysis/4`` document including the
``analysis.findings`` / ``analysis.suppressed`` telemetry counters;
stdout carries the rendering only, warnings go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.findings import render_json, render_text
from repro.analysis.lint import RULES, lint_paths


def add_analyze_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``analyze`` subcommand on the ``repro`` CLI."""
    p = sub.add_parser(
        "analyze",
        help="static analysis (repro-lint)",
        description=(
            "Run the RL001-RL010 lint rules over the given paths.  Rules: "
            + "; ".join(f"{k}: {v}" for k, v in sorted(RULES.items()))
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files/directories to lint (default: src)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings too (CI gate mode)",
    )
    p.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="output rendering",
    )
    p.set_defaults(func=cmd_analyze)


def cmd_analyze(args: argparse.Namespace) -> int:
    """Entry point for ``python -m repro analyze``."""
    paths = []
    for p in args.paths:
        if os.path.exists(p):
            paths.append(p)
        else:
            print(
                f"warning: path {p!r} does not exist, skipping",
                file=sys.stderr,
            )
    if not paths:
        print("error: no existing path to analyze", file=sys.stderr)
        return 2
    report = lint_paths(paths)
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return report.exit_code(strict=args.strict)
