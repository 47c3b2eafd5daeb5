#!/usr/bin/env python
"""Gate: resilience guards must add <2% wall-clock on a nominal run.

Runs the same fault-free workload with guards on (the default) and with
the whole resilience layer off, interleaved best-of-N to suppress host
noise, and fails (exit 1) when the guarded run is more than ``--tol``
slower.  The guards are a handful of ``np.isfinite`` scans per solve, so
on the nominal path this should be deep in the noise floor — the gate
exists to keep it there.

Usage::

    PYTHONPATH=src python benchmarks/check_resilience_overhead.py \
        [--workload turbine_tiny] [--steps 2] [--reps 3] [--tol 0.02]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.simulation import NaluWindSimulation
from repro.resilience import RecoveryPolicy


def run_once(workload: str, steps: int, guards: bool) -> float:
    """Wall seconds of one nominal run with the given guard setting."""
    cfg = SimulationConfig(
        recovery=RecoveryPolicy(
            enabled=guards, guards=guards, recover_non_convergence=guards
        )
    )
    sim = NaluWindSimulation(workload, cfg)
    t0 = time.perf_counter()
    report = sim.run(steps)
    elapsed = time.perf_counter() - t0
    # Sanity: nominal runs never trigger recovery, with or without guards.
    if report.recovery["events"]:
        raise SystemExit(
            f"nominal run unexpectedly recovered: {report.recovery}"
        )
    if not np.all(np.isfinite(sim.velocity)):
        raise SystemExit("nominal run produced non-finite fields")
    return elapsed


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns 0 on pass, 1 when overhead exceeds tol."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="turbine_tiny")
    ap.add_argument("--steps", type=int, default=2)
    ap.add_argument(
        "--reps", type=int, default=3,
        help="repetitions per configuration; best-of wins (default 3)",
    )
    ap.add_argument(
        "--tol", type=float, default=0.02,
        help="max fractional guard overhead (default 0.02 = 2%%)",
    )
    args = ap.parse_args(argv)

    # Warm-up (imports, numpy caches) outside the timed reps, then
    # interleave so slow host drift hits both configurations equally.
    run_once(args.workload, 1, guards=True)
    on: list[float] = []
    off: list[float] = []
    for _ in range(args.reps):
        on.append(run_once(args.workload, args.steps, guards=True))
        off.append(run_once(args.workload, args.steps, guards=False))

    best_on, best_off = min(on), min(off)
    overhead = best_on / best_off - 1.0
    print(
        f"resilience guard overhead: {overhead * 100:+.2f}% "
        f"(guards on {best_on:.3f}s vs off {best_off:.3f}s, "
        f"best of {args.reps} on {args.workload} x {args.steps} steps)"
    )
    if overhead > args.tol:
        print(
            f"FAIL: overhead {overhead * 100:.2f}% exceeds "
            f"{args.tol * 100:.0f}% budget"
        )
        return 1
    print(f"OK: within {args.tol * 100:.0f}% budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
