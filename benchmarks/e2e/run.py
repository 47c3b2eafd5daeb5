#!/usr/bin/env python3
"""bench_e2e: the host-wall + modeled-clock benchmark of this repository.

Whole benchmark, every workload (what a person runs)::

    python benchmarks/e2e/run.py [--seed 0] [--repeats 3] [--smoke] [-o FILE]

One workload for a fixed time (what the benchmark driver runs)::

    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Both print every metric by name with its unit, check the outputs, and exit
non-zero if a check fails; the second form ends with one JSON line.  See
README.md beside this file for the metrics, the workloads and the protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")
RESULT_FORMAT = "repro.bench_e2e/1"
#: Passes one driver run makes at most; ``--seconds`` can only lower it.
MAX_PASSES = 2
#: ``--seconds`` of the driver form when not given: BENCHMARK.json's run_seconds.
RUN_SECONDS = 32.0
CHILD_TIMEOUT_S = 80

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"bench_e2e: no program to measure: {SRC}/repro is missing")
sys.path.insert(0, SRC)

import metrics  # noqa: E402
from workloads import WORKLOADS, run_pass  # noqa: E402


# -- one pass in a fresh child process ---------------------------------------


def child_env() -> dict[str, str]:
    """Single-threaded BLAS, fixed hash seed, ``src`` importable."""
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH", "")) if p
        ),
    )
    return env


def spawn_pass(
    name: str,
    seed: int,
    smoke: bool = False,
    traced: bool = False,
    trace_out: str | None = None,
) -> dict:
    """Run one pass of ``name`` in a child; a crash becomes a failed record."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    cmd = [sys.executable, os.path.abspath(__file__), "--child", name,
           "--seed", str(seed), "--workdir", workdir]
    cmd += ["--smoke"] if smoke else []
    cmd += ["--traced"] if traced else []
    cmd += ["--trace-out", trace_out] if trace_out else []
    try:
        proc = subprocess.run(
            cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        error = f"child exited with code {proc.returncode}"
    except subprocess.TimeoutExpired:
        error = f"child exceeded {CHILD_TIMEOUT_S} s"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    return {"workload": name, "traced": traced, "crashed": error}


# -- combining the passes of one workload -------------------------------------


def summarize(name: str, untraced: list[dict], traced: list[dict]) -> dict:
    """Metrics, output checks and operation counts of one workload."""
    wl = WORKLOADS[name]
    records = untraced + traced
    crashed = [r["crashed"] for r in records if "crashed" in r]
    result = {"workload": name, "why": wl.why, "kind": wl.kind,
              "repeats": len(untraced), "traced_repeats": len(traced)}
    if crashed:
        # An exception is a failure of every operation the pass would make.
        result.update(attempted=max(len(records), 1), failed=len(crashed),
                      correct=False, problems=crashed,
                      end_to_end={}, per_layer={}, reliability={})
        return result
    diverged = metrics.determinism_problems(records)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(f.get("count", 1) for r in records for f in r["failures"])
    if diverged:
        # Nothing measured on diverging runs can stand: every operation
        # fails, and the numbers shown are the first repeat's alone.
        failed = attempted
        untraced, traced = records[:1], []
    failed = min(failed, attempted)
    e2e = metrics.end_to_end(untraced or traced, failed / attempted)
    layers, reliability = metrics.per_layer(untraced, traced)
    problems = diverged + [
        f"{f['op']}: {f['why']}" for r in records for f in r["failures"]
    ]
    result.update(
        attempted=attempted,
        failed=failed,
        correct=not problems,
        problems=problems,
        end_to_end=e2e,
        per_layer=layers,
        reliability=reliability,
        records=records,
    )
    return result


def print_workload(result: dict, out=sys.stdout) -> None:
    """Every metric by name, with its unit."""
    print(f"\n== {result['workload']}  ({result['repeats']} repeat(s), "
          f"{result['traced_repeats']} traced)", file=out)
    print(f"   {result['why']}", file=out)
    for name, m in result["end_to_end"].items():
        notes = [m["clock"]]
        if "raw" in m:
            notes.append(f"raw {m['raw']:.6g}")
        sp = m["spread"]
        if sp.get("n"):
            notes.append(f"repeats: median {sp['median']:.6g}")
        if "q1" in sp:
            notes.append(f"q1 {sp['q1']:.6g}, q3 {sp['q3']:.6g}")
        print(f"   {name:32s} {m['value']:>14.6g} {m['unit']:<6s}  "
              f"[{'; '.join(notes)}]", file=out)
    rel = result["reliability"]
    if rel.get("traced"):
        flag = "" if rel.get("reliable") else "  ** UNRELIABLE **"
        print(f"   -- per layer (self time per step, traced){flag} "
              f"identity err {rel.get('identity_rel_err', 0.0):.2e}", file=out)
    else:
        print("   -- per layer (counts only; no traced pass)", file=out)
    for name, m in result["per_layer"].items():
        print(f"   {name:32s} {m['value']:>14.6g} {m['unit']}", file=out)
    print(f"   operations: attempted {result['attempted']}, "
          f"failed {result['failed']}", file=out)
    for p in result["problems"]:
        print(f"   CHECK FAILED: {p}", file=out)


# -- the two front ends ---------------------------------------------------------


def driver_run(name: str, seed: int, seconds: float, trace: bool) -> int:
    """One workload for ``seconds``; last stdout line is the result JSON."""
    untraced: list[dict] = []
    traced: list[dict] = []
    if trace:
        untraced.append(spawn_pass(name, seed))
        traced.append(spawn_pass(name, seed, traced=True))
    else:
        # As many whole passes as the workload's stated pass budget fits into
        # ``seconds`` -- not as many as happened to fit: a headline is a best
        # across passes, so every run of a set must make the same number.
        passes = int(seconds // WORKLOADS[name].pass_budget_s)
        for _ in range(min(max(passes, 1), MAX_PASSES)):
            untraced.append(spawn_pass(name, seed))
    result = summarize(name, untraced, traced)
    print_workload(result, out=sys.stderr)
    if trace:
        shown = result["per_layer"]
    else:
        shown = {
            k: {"value": v["value"], "unit": v["unit"]}
            for k, v in result["end_to_end"].items()
            if k in metrics.DRIVER_METRICS
        }
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": shown,
    }))
    return 0 if result["correct"] else 1


def environment() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "loadavg_before": list(os.getloadavg()),
    }


def lines_of_code() -> dict[str, int]:
    """Informational ``loc.<package>``: physical lines per src/repro package."""
    pkg_root = os.path.join(SRC, "repro")
    out = {}
    for entry in sorted(os.listdir(pkg_root)):
        path = os.path.join(pkg_root, entry)
        files = (
            [os.path.join(path, f) for f in os.listdir(path)]
            if os.path.isdir(path)
            else [path]
        )
        n = 0
        for f in files:
            if f.endswith(".py"):
                with open(f, encoding="utf-8") as fh:
                    n += sum(1 for _ in fh)
        if n:
            out[f"loc.{entry.removesuffix('.py')}"] = n
    return out


def full_run(
    seed: int, repeats: int, smoke: bool, out_path: str | None,
    trace_dir: str | None,
) -> int:
    """Every workload: repeats round-robin, then one traced pass each."""
    env = environment()
    names = list(WORKLOADS)
    untraced: dict[str, list] = {n: [] for n in names}
    traced: dict[str, list] = {n: [] for n in names}
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)

    def one(job: tuple[str, bool]) -> None:
        name, is_traced = job
        trace_out = (
            os.path.join(trace_dir, f"{name}.trace.json")
            if trace_dir and is_traced
            else None
        )
        rec = spawn_pass(name, seed, smoke, is_traced, trace_out)
        (traced if is_traced else untraced)[name].append(rec)
        print(f"  pass done: {name}{' (traced)' if is_traced else ''}",
              file=sys.stderr)

    jobs = [(n, False) for _ in range(repeats) for n in names]
    jobs += [(n, True) for n in names]
    if smoke:
        # Smoke numbers are thrown away, so two passes may share the machine.
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(one, jobs))
    else:
        for job in jobs:  # one child at a time
            one(job)
    env["loadavg_after"] = list(os.getloadavg())

    results = {n: summarize(n, untraced[n], traced[n]) for n in names}
    for result in results.values():
        print_workload(result)
    loc = lines_of_code()
    print("\n== informational")
    for key, n in loc.items():
        print(f"   {key:32s} {n:>14d} lines")
    ok = all(r["correct"] for r in results.values())
    doc = {
        "format": RESULT_FORMAT,
        "seed": seed,
        "repeats": repeats,
        "smoke": smoke,
        "environment": env,
        "bounds": {
            m.name: {"bound": m.bound, "floor": m.floor, "better": m.better}
            for m in metrics.END_TO_END
        },
        "workloads": results,
        "loc": loc,
        "correct": ok,
    }
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"\nbench_e2e: {'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--smoke", action="store_true",
                    help="1 repeat of shortened workloads (machinery check)")
    ap.add_argument("-o", "--output", help="write the result JSON here")
    ap.add_argument("--trace-out", help="full run: directory for Chrome "
                    "traces; child: trace file")
    ap.add_argument("--workload", choices=list(WORKLOADS),
                    help="driver form: measure this workload only")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=list(WORKLOADS), help=argparse.SUPPRESS)
    ap.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.child:
        record = run_pass(args.child, args.seed, args.workdir, args.smoke,
                          args.traced, args.trace_out)
        print(json.dumps(record))
        return 0
    if args.workload:
        return driver_run(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    return full_run(args.seed, 1 if args.smoke else args.repeats, args.smoke,
                    args.output, args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
