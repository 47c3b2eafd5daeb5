#!/usr/bin/env python
"""Validate the ``repro.profile/1`` pipeline; fail on broken invariants.

Tier-2 gate companion to ``check_telemetry_regression.py``.  Two modes:

* **self-check** (default, no arguments): run a small workload under the
  timeline profiler at two rank counts and assert the structural
  invariants the profiler guarantees —

  - the document round-trips through the ``repro.profile/1`` schema;
  - per-rank accounted time (compute + wait + transfer) equals the span
    wall time within tolerance, on every rank;
  - the critical path sums to wall time within tolerance;
  - both modeled clocks hold the same events: per phase, the timeline's
    collective syncs equal the ``TrafficLog``'s collective count;
  - the roofline join reports an achieved-vs-model fraction in (0, 1]
    for every instrumented kernel;
  - the ``profile.*`` gauges land in the telemetry metrics snapshot;
  - comm-wait fraction rises with rank count (the paper's fig8 story);
  - two identical runs serialize bitwise-identically.

* **drift mode** (``baseline.json current.json``): diff two exported
  profile documents — summary fractions, per-phase wait/imbalance, and
  critical-path length — exit non-zero beyond tolerance.

The self-check runs simulations, so unlike the telemetry gate this
script imports ``repro`` (same pattern as
``check_restart_determinism.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

SCHEMA = "repro.profile/1"


def load(path: str) -> dict:
    """Load one profile document, validating the schema tag."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise SystemExit(
            f"{path}: schema {doc.get('schema')!r} != expected {SCHEMA!r}"
        )
    return doc


def rel_drift(base: float, cur: float) -> float:
    """Relative change |cur - base| / base (inf when base == 0 != cur)."""
    if base == 0.0:
        return 0.0 if cur == 0.0 else float("inf")
    return abs(cur - base) / base


def check_invariants(doc: dict, tol: float) -> list[str]:
    """Structural invariants every profile document must satisfy."""
    failures: list[str] = []
    wall = doc.get("wall_time_s", 0.0)
    if wall <= 0.0:
        failures.append(f"wall_time_s must be positive, got {wall}")

    for r, rt in sorted(doc.get("ranks", {}).items()):
        acc = rt.get("accounted_s", 0.0)
        if rel_drift(wall, acc) > tol:
            failures.append(
                f"rank {r}: accounted {acc:.9f}s != wall {wall:.9f}s "
                f"(compute+wait+transfer must equal span wall time)"
            )

    cp = doc.get("critical_path", {})
    if rel_drift(wall, cp.get("total_s", 0.0)) > tol:
        failures.append(
            f"critical path {cp.get('total_s', 0.0):.9f}s != wall "
            f"{wall:.9f}s"
        )

    for phase, entry in sorted(doc.get("roofline", {}).items()):
        for kernel, k in sorted(entry.get("kernels", {}).items()):
            frac = max(k.get("achieved_bw_frac", 0.0),
                       k.get("achieved_flop_frac", 0.0))
            # Launch-only bookkeeping kernels (zero flops and bytes)
            # legitimately achieve 0 of either roof.
            has_work = k.get("flops", 0.0) > 0.0 or k.get("bytes", 0.0) > 0.0
            if frac > 1.0 + 1e-12 or frac < 0.0 or (has_work and frac == 0.0):
                failures.append(
                    f"roofline {phase}/{kernel}: achieved fraction "
                    f"{frac} outside (0, 1]"
                )
            if k.get("bound") not in ("bandwidth", "flops", "launch"):
                failures.append(
                    f"roofline {phase}/{kernel}: bad bound "
                    f"{k.get('bound')!r}"
                )
    return failures


def compare(base: dict, cur: dict, tol: float) -> list[str]:
    """Drift mode: return failure strings (empty = pass)."""
    failures: list[str] = []
    for key in ("comm_fraction", "wait_fraction", "syncs"):
        b = base.get("summary", {}).get(key, 0.0)
        c = cur.get("summary", {}).get(key, 0.0)
        d = rel_drift(b, c)
        if d > tol:
            failures.append(
                f"summary.{key} drift {d * 100:.1f}% ({b:.4g} -> {c:.4g}) "
                f"exceeds {tol * 100:.0f}%"
            )
    bp, cp = base.get("phases", {}), cur.get("phases", {})
    for name in sorted(set(bp) | set(cp)):
        if name not in bp or name not in cp:
            failures.append(
                f"phase {name!r} only in "
                f"{'current' if name not in bp else 'baseline'}"
            )
            continue
        for key in ("wait_s", "imbalance", "syncs"):
            d = rel_drift(bp[name].get(key, 0.0), cp[name].get(key, 0.0))
            if d > tol:
                failures.append(
                    f"phase {name!r} {key} drift {d * 100:.1f}% exceeds "
                    f"{tol * 100:.0f}%"
                )
    d = rel_drift(
        base.get("critical_path", {}).get("total_s", 0.0),
        cur.get("critical_path", {}).get("total_s", 0.0),
    )
    if d > tol:
        failures.append(
            f"critical path length drift {d * 100:.1f}% exceeds "
            f"{tol * 100:.0f}%"
        )
    return failures


def self_check(workload: str, steps: int, tol: float) -> list[str]:
    """Run the profiled workload at two rank counts; check invariants."""
    from repro.harness import profile_run

    failures: list[str] = []
    docs = {}
    for nranks in (2, 6):
        profile = profile_run(workload, nranks, n_steps=steps)
        doc = profile.to_dict()
        failures += [f"[r{nranks}] {f}" for f in check_invariants(doc, tol)]

        # Schema round-trip.
        from repro.obs import RunProfile

        back = RunProfile.from_json(profile.to_json())
        if back.to_json() != profile.to_json():
            failures.append(f"[r{nranks}] JSON round-trip not identical")

        # Determinism: a second identical run must serialize bitwise-equal
        # (simulated clocks derive only from deterministic tallies).
        again = profile_run(workload, nranks, n_steps=steps)
        if again.to_json() != profile.to_json():
            failures.append(
                f"[r{nranks}] repeated run not bitwise-stable"
            )
        docs[nranks] = doc

    # profile.* gauges must reach the telemetry metrics snapshot, where
    # check_telemetry_regression.py-style drift gates can see them.
    from repro.core.config import SimulationConfig
    from repro.core.simulation import NaluWindSimulation

    from repro.resilience.policy import recovery_findings

    cfg = SimulationConfig(nranks=2, profile=True)
    sim = NaluWindSimulation(workload, cfg)
    report = sim.run(steps)
    failures += [
        f"fault-free run: {f}" for f in recovery_findings(report.recovery)
    ]
    gauges = report.telemetry.metrics.get("gauges", {})
    for name in (
        "profile.wall_s",
        "profile.compute_s",
        "profile.wait_s",
        "profile.transfer_s",
        "profile.comm_fraction",
        "profile.wait_fraction",
        "profile.syncs",
        "profile.critical_path_s",
    ):
        if name not in gauges:
            failures.append(f"gauge {name!r} missing from telemetry metrics")

    # Both clocks see the same collectives, phase by phase (SimWorld's
    # ``collective`` is their one writer).
    traffic = sim.world.traffic
    for phase in sorted(set(traffic.phases()) | set(report.profile.phases)):
        logged = traffic.collective_count(phase)
        timed = report.profile.phases.get(phase, {}).get("collectives", 0.0)
        if timed != logged:
            failures.append(
                f"phase {phase!r}: timeline saw {timed:.0f} collectives, "
                f"TrafficLog {logged}"
            )

    # The fig8 story: more ranks, larger comm-wait share.
    lo = docs[2]["summary"]["comm_fraction"]
    hi = docs[6]["summary"]["comm_fraction"]
    if not hi > lo:
        failures.append(
            f"comm fraction did not rise with ranks ({lo:.4f} at 2 -> "
            f"{hi:.4f} at 6)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns 0 on pass, 1 on failure."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "baseline", nargs="?", default="",
        help="baseline profile JSON (omit for self-check mode)",
    )
    ap.add_argument(
        "current", nargs="?", default="",
        help="current profile JSON (drift mode)",
    )
    ap.add_argument("--workload", default="turbine_tiny")
    ap.add_argument("--steps", type=int, default=1)
    ap.add_argument(
        "--tol", type=float, default=1e-6,
        help="relative tolerance for identities and drift (default 1e-6; "
        "simulated clocks are deterministic, so tight)",
    )
    args = ap.parse_args(argv)

    if bool(args.baseline) != bool(args.current):
        ap.error("drift mode needs both baseline and current")

    if args.baseline:
        failures = compare(load(args.baseline), load(args.current), args.tol)
        label = f"{args.baseline} vs {args.current}"
    else:
        failures = self_check(args.workload, args.steps, args.tol)
        label = f"self-check {args.workload} ({args.steps} steps)"

    if failures:
        print(f"PROFILE REGRESSION ({len(failures)} failures):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"profile OK: {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
