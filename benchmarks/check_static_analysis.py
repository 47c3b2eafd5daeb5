#!/usr/bin/env python
"""Run repro-lint as a CI gate; fail on findings.

Tier-2 correctness gate alongside ``check_telemetry_regression.py`` and
``check_resilience_overhead.py``: runs ``python -m repro analyze --strict
--format json`` over the source tree in a subprocess (the real CLI entry
point, so the gate exercises what ships), propagates its exit code and
prints the findings, the suppressed count and the pragma count — which
may only go down.

Usage::

    python benchmarks/check_static_analysis.py [paths...]
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRAGMA = re.compile(r"# repro: allow\([A-Z]{2}\d{3}")


def main(argv: list[str] | None = None) -> int:
    """0 on a clean tree, 1 on findings, 2 when nothing was analysed."""
    paths = (sys.argv[1:] if argv is None else argv) or ["src/repro"]
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "analyze", "--strict",
         "--format", "json", *paths],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
    )
    print(proc.stderr, file=sys.stderr, end="")
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        print(proc.stdout, end="")
        return proc.returncode or 1
    for f in doc["findings"]:
        print(
            f"  - {f['rule']} [{f['severity']}] "
            f"{f['path']}:{f['line']}: {f['message']}"
        )
    pragmas = sum(
        len(PRAGMA.findall(source.read_text(encoding="utf-8")))
        for path in paths
        for source in Path(REPO_ROOT, path).rglob("*.py")
    )
    verdict = "OK" if proc.returncode == 0 else "GATE FAILED"
    print(
        f"static analysis {verdict}: {len(doc['findings'])} findings, "
        f"{len(doc['suppressed'])} suppressed, {pragmas} pragmas"
    )
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
