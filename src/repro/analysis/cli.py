"""``python -m repro analyze`` — run repro-lint + the kernel sanitizer.

Exit status is the gate contract: 0 when the tree is clean (after pragma
suppression), 1 when findings remain — errors only by default, every
finding under ``--strict`` — and 2 when none of the given paths exists
(a gate pointed at a mistyped path must not pass by analysing nothing).
``--format json`` emits the ``repro.analysis/3`` document including the
``analysis.findings`` / ``analysis.suppressed`` telemetry counters;
stdout carries the rendering only, warnings go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.findings import AnalysisReport, render_json, render_text
from repro.analysis.lint import RULES, lint_paths
from repro.analysis.protocol import analyze_protocol_paths


def add_analyze_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``analyze`` subcommand on the ``repro`` CLI."""
    p = sub.add_parser(
        "analyze",
        help="static (repro-lint) + dynamic (sanitizer) analysis",
        description=(
            "Run the RL001-RL010 lint rules over the given "
            "paths and the KS001-KS005 permuted-thread determinism "
            "checks over the assembly kernels.  Rules: "
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
    p.add_argument(
        "--no-dynamic",
        action="store_true",
        help="skip the sanitizer/determinism replay (lint only)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the dynamic replay harness",
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
    report = AnalysisReport()
    report.extend(lint_paths(paths))
    report.extend(analyze_protocol_paths(paths))
    if not args.no_dynamic:
        from repro.analysis.determinism import run_dynamic_checks

        report.extend(run_dynamic_checks(seed=args.seed))
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return report.exit_code(strict=args.strict)
