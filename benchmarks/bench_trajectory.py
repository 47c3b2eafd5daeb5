"""Append one row per (sha, workload) to results/BENCH_trajectory.jsonl.

Input is what the benchmark driver sees: the last stdout line of
``python benchmarks/e2e/run.py --workload W --seed N --seconds 32 --trace T``,
one line per run, any number of runs.  ``--trace 0`` lines carry the five
end-to-end metrics of BENCHMARK.json (the row keeps their median and the
quartiles, so a later row can be judged against this one's spread);
``--trace 1`` lines carry the per-layer metrics, of which the row keeps the
ones that repeat exactly (``COUNTS``).  Every row also carries
``loc.<package>`` of the tree this script runs from, so run it from the
tree the lines were measured on.

    python benchmarks/bench_trajectory.py SHA WORKLOAD LINES.jsonl [...]

The workload ``tier1`` is the test suite instead: its one file is the log
of ``python -m pytest -q --durations=15``, and the row keeps the pass
count, the wall and the slowest tests.

    python benchmarks/bench_trajectory.py SHA tier1 PYTEST_LOG
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE / "e2e"))

from run import lines_of_code  # noqa: E402

OUT = HERE / "results" / "BENCH_trajectory.jsonl"
COUNTS = (
    "krylov.iters_momentum", "krylov.iters_pressure", "krylov.iters_scalar",
    "comm.messages_per_step", "comm.message_bytes_per_step",
    "comm.collectives_per_step",
    "perf.flops_per_step", "perf.launches_per_step",
    "amg.levels", "amg.setup_calls", "amg.refresh_calls",
    "overset.assemble_calls", "overset.fringe_nodes", "harness.modeled_nli_s",
)


def row(sha: str, workload: str, lines: list[dict]) -> dict:
    """One trajectory row from the parsed last lines of a workload's runs."""
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = {
        "sha": sha,
        "workload": workload,
        "attempted": sum(r["attempted"] for r in lines),
        "failed": sum(r["failed"] for r in lines),
        "loc": lines_of_code(),
    }
    for name in (m["name"] for m in declared["end_to_end"]):
        vals = [r["metrics"][name]["value"] for r in lines if name in r["metrics"]]
        if vals:
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            out[name] = {"median": med, "q1": q1, "q3": q3, "runs": len(vals)}
    traced = [r["metrics"] for r in lines if COUNTS[0] in r["metrics"]]
    if traced:
        out["counts"] = {k: traced[-1][k]["value"] for k in COUNTS}
    return out


def tier1_row(sha: str, log: str) -> dict:
    """The Tier-1 row from a ``pytest -q --durations=N`` log."""
    passed, wall = re.search(r"(\d+) passed.* in ([\d.]+)s", log).groups()
    slowest = re.findall(r"^([\d.]+)s (call|setup|teardown)\s+(\S+)", log, re.M)
    return {
        "sha": sha,
        "workload": "tier1",
        "passed": int(passed),
        "wall_s": float(wall),
        "slowest": [
            {"test": test, "when": when, "s": float(s)}
            for s, when, test in slowest
        ],
        "loc": lines_of_code(),
    }


if __name__ == "__main__":
    sha, workload, *files = sys.argv[1:]
    if workload == "tier1":
        out = tier1_row(sha, Path(files[0]).read_text())
    else:
        out = row(
            sha,
            workload,
            [
                json.loads(line)
                for f in files
                for line in Path(f).read_text().splitlines()
                if line.strip()
            ],
        )
    with OUT.open("a") as fh:
        fh.write(json.dumps(out, sort_keys=True) + "\n")
