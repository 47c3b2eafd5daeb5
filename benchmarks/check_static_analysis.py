#!/usr/bin/env python
"""Run repro-lint + the kernel sanitizer as a CI gate; fail on findings.

Tier-2 correctness gate alongside ``check_telemetry_regression.py`` and
``check_resilience_overhead.py``: invokes ``python -m repro analyze
--strict`` over the source tree and exits non-zero when any RL (static)
or KS (dynamic) finding survives pragma suppression.  One stage: the
full-tree scan takes a few seconds, so there is nothing to pre-filter.

Usage::

    python benchmarks/check_static_analysis.py [paths...] [--no-dynamic]

The analyzer runs in a subprocess through the real CLI entry point so
the gate exercises exactly what ``python -m repro analyze`` ships.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_analyzer(
    paths: list[str], no_dynamic: bool, seed: int
) -> tuple[int, dict]:
    """Run ``python -m repro analyze --strict --format json``."""
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "analyze",
        "--strict",
        "--format",
        "json",
        "--seed",
        str(seed),
    ]
    if no_dynamic:
        cmd.append("--no-dynamic")
    cmd += paths
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        cmd, cwd=REPO_ROOT, env=env, capture_output=True, text=True
    )
    if proc.stderr.strip():
        print(proc.stderr, file=sys.stderr, end="")
    if proc.returncode == 2:  # usage error: nothing was analysed
        raise SystemExit(2)
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        print(proc.stdout)
        raise SystemExit(
            f"analyzer emitted non-JSON output (exit {proc.returncode})"
        )
    return proc.returncode, doc


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns 0 on a clean tree, 1 on findings."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="paths to analyze (default: src/repro)",
    )
    ap.add_argument(
        "--no-dynamic",
        action="store_true",
        help="skip the sanitizer/determinism replay (lint only)",
    )
    ap.add_argument(
        "--seed", type=int, default=0, help="dynamic-replay seed"
    )
    args = ap.parse_args(argv)

    code, doc = run_analyzer(args.paths, args.no_dynamic, args.seed)
    findings = doc.get("findings", [])
    suppressed = doc.get("suppressed", [])
    dyn = doc.get("dynamic", {})

    if findings:
        print(f"STATIC ANALYSIS GATE FAILED ({len(findings)} findings):")
        for f in findings:
            loc = f.get("kernel") or f"{f['path']}:{f['line']}"
            print(f"  - {f['rule']} [{f['severity']}] {loc}: {f['message']}")
        return 1
    if code != 0:
        print(f"analyzer exited {code} with no reported findings")
        return code
    san = dyn.get("sanitizer", {})
    print(
        "static analysis OK: 0 findings "
        f"({len(suppressed)} pragma-suppressed; "
        f"dynamic: {dyn.get('scatter_checks', 0)} scatter checks, "
        f"{san.get('launches', 0)} sanitized launches)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
