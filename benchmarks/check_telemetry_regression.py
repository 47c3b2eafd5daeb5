#!/usr/bin/env python
"""Diff two exported RunTelemetry JSON files; fail on drift.

Tier-2 perf gate: compare a current run's telemetry against a committed
baseline and exit non-zero when per-phase wall time or per-equation mean
iteration counts drift beyond tolerance.  Works on the artifacts
``benchmarks/conftest.py`` / ``python -m repro trace --output`` write.

Usage::

    python benchmarks/check_telemetry_regression.py baseline.json current.json \
        [--phase-tol 0.5] [--iters-tol 0.1] [--min-phase-seconds 0.005] \
        [--exact comm. ops. profile. assembly. amg.]

``--exact`` is for comparing a parent commit's trace with a change's (same
workload, same seed): every counter *and gauge* of the named families must
then be identical, which is what a host-only optimisation promises.

Pure-stdlib on purpose (no ``repro`` import) so CI can run it without
installing the package.
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA = "repro.telemetry/1"


def load(path: str) -> dict:
    """Load one telemetry document, validating the schema tag."""
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


def mean(xs: list) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def compare(
    base: dict,
    cur: dict,
    phase_tol: float,
    iters_tol: float,
    min_phase_seconds: float,
    exact: tuple[str, ...] = (),
) -> list[str]:
    """Return a list of failure strings (empty = pass)."""
    failures: list[str] = []

    # Families promised bit-identical (parent-vs-change traces).
    for section in ("counters", "gauges"):
        bsec = base.get("metrics", {}).get(section, {})
        csec = cur.get("metrics", {}).get(section, {})
        for key in sorted(set(bsec) | set(csec)):
            if key.startswith(exact) and bsec.get(key) != csec.get(key):
                failures.append(
                    f"exact family: {section[:-1]} {key!r} differs "
                    f"({bsec.get(key)} -> {csec.get(key)})"
                )

    # Per-phase wall time.  Tiny phases are pure noise on wall clocks, so
    # only phases above `min_phase_seconds` in the baseline gate.
    bp, cp = base.get("phases", {}), cur.get("phases", {})
    for name in sorted(set(bp) | set(cp)):
        b = bp.get(name, {}).get("total_s", 0.0)
        c = cp.get(name, {}).get("total_s", 0.0)
        if name not in bp or name not in cp:
            failures.append(
                f"phase {name!r} only in "
                f"{'current' if name not in bp else 'baseline'}"
            )
            continue
        if b < min_phase_seconds:
            continue
        d = rel_drift(b, c)
        if d > phase_tol:
            failures.append(
                f"phase {name!r} wall time drift {d * 100:.1f}% "
                f"({b:.4f}s -> {c:.4f}s) exceeds {phase_tol * 100:.0f}%"
            )

    # Per-equation mean iterations — deterministic in the simulator, so a
    # tight tolerance catches convergence regressions exactly.
    bs, cs = base.get("solves", {}), cur.get("solves", {})
    for eq in sorted(set(bs) | set(cs)):
        if eq not in bs or eq not in cs:
            failures.append(
                f"equation {eq!r} only in "
                f"{'current' if eq not in bs else 'baseline'}"
            )
            continue
        b = mean(bs[eq].get("iterations", []))
        c = mean(cs[eq].get("iterations", []))
        d = rel_drift(b, c)
        if d > iters_tol:
            failures.append(
                f"{eq} mean iterations drift {d * 100:.1f}% "
                f"({b:.2f} -> {c:.2f}) exceeds {iters_tol * 100:.0f}%"
            )

    # AMG hierarchy quality: complexity blow-ups are setup-cost regressions.
    ba, ca = base.get("amg_setups", []), cur.get("amg_setups", [])
    if ba and ca:
        for key in ("operator_complexity", "grid_complexity"):
            b, c = ba[-1][key], ca[-1][key]
            d = rel_drift(b, c)
            if d > iters_tol:
                failures.append(
                    f"amg {key} drift {d * 100:.1f}% "
                    f"({b:.3f} -> {c:.3f}) exceeds {iters_tol * 100:.0f}%"
                )

    # Resilience/comm/campaign schema: the resilience.* counter names —
    # including the checkpoint.* family — the comm.* transport counters
    # (retries, drops_detected, corrupt_detected, duplicates_discarded),
    # and the campaign.* supervision counters (retries, requeues,
    # quarantined, lease_expired, breaker_trips) must match exactly,
    # label renderings included: the simulator is deterministic, so a
    # vanished/renamed counter or a changed count is a recovery-path
    # change, not noise.
    bm = base.get("metrics", {}).get("counters", {})
    cm = cur.get("metrics", {}).get("counters", {})
    for prefix in ("resilience.", "comm.", "campaign."):
        family = prefix.rstrip(".")
        bres = {k: v for k, v in bm.items() if k.startswith(prefix)}
        cres = {k: v for k, v in cm.items() if k.startswith(prefix)}
        for key in sorted(set(bres) | set(cres)):
            if key not in bres or key not in cres:
                failures.append(
                    f"{family} counter {key!r} only in "
                    f"{'current' if key not in bres else 'baseline'}"
                )
            elif bres[key] != cres[key]:
                failures.append(
                    f"{family} counter {key!r} changed "
                    f"({bres[key]} -> {cres[key]})"
                )

    # Overlapped-exchange profile gauges: the number of split halo
    # rounds is deterministic (exact), while the priced hidden-wait
    # rank-seconds may move within the iteration tolerance when the
    # machine model is retuned.
    bg = base.get("metrics", {}).get("gauges", {})
    cg = cur.get("metrics", {}).get("gauges", {})
    b_rounds = float(bg.get("profile.overlap_rounds", 0.0))
    c_rounds = float(cg.get("profile.overlap_rounds", 0.0))
    if b_rounds != c_rounds:
        failures.append(
            f"profile.overlap_rounds changed ({b_rounds:.0f} -> "
            f"{c_rounds:.0f}): split-exchange schedule drifted"
        )
    b_saved = float(bg.get("profile.overlap_saved_wait_s", 0.0))
    c_saved = float(cg.get("profile.overlap_saved_wait_s", 0.0))
    d = rel_drift(b_saved, c_saved)
    if d > iters_tol:
        failures.append(
            f"profile.overlap_saved_wait_s drift {d * 100:.1f}% "
            f"({b_saved:.4f} -> {c_saved:.4f}) exceeds "
            f"{iters_tol * 100:.0f}%"
        )

    # Recovery summary: failure/recovery-by-action counts must replay
    # identically (fault schedules are seeded).
    bsum = base.get("resilience", {}) or {}
    csum = cur.get("resilience", {}) or {}
    bkey = (bsum.get("failures", 0), bsum.get("recoveries", {}))
    ckey = (csum.get("failures", 0), csum.get("recoveries", {}))
    if bkey != ckey:
        failures.append(
            f"resilience summary changed ({bkey[0]} failures {bkey[1]} "
            f"-> {ckey[0]} failures {ckey[1]})"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns 0 on pass, 1 on drift."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="baseline RunTelemetry JSON")
    ap.add_argument("current", help="current RunTelemetry JSON")
    ap.add_argument(
        "--phase-tol", type=float, default=0.5,
        help="max relative per-phase wall-time drift (default 0.5 = 50%%; "
        "wall clocks on shared CI hosts are noisy)",
    )
    ap.add_argument(
        "--iters-tol", type=float, default=0.1,
        help="max relative mean-iteration / AMG-complexity drift "
        "(default 0.1 = 10%%)",
    )
    ap.add_argument(
        "--min-phase-seconds", type=float, default=0.005,
        help="ignore phases below this baseline wall time (default 5 ms)",
    )
    ap.add_argument(
        "--exact", nargs="*", default=[], metavar="PREFIX",
        help="counter/gauge name prefixes that must match exactly "
        "(parent-vs-change traces), e.g. comm. ops. profile. assembly. amg.",
    )
    args = ap.parse_args(argv)

    base = load(args.baseline)
    cur = load(args.current)
    for key in ("workload", "nranks", "n_steps"):
        if base.get(key) != cur.get(key):
            print(
                f"warning: {key} differs ({base.get(key)} vs "
                f"{cur.get(key)}); comparison may be meaningless",
                file=sys.stderr,
            )

    failures = compare(
        base, cur, args.phase_tol, args.iters_tol, args.min_phase_seconds,
        tuple(args.exact),
    )
    if failures:
        print(f"TELEMETRY REGRESSION ({len(failures)} failures):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(
        f"telemetry OK: {base.get('workload')} "
        f"({base.get('nranks')} ranks, {base.get('n_steps')} steps) "
        f"within phase-tol {args.phase_tol:.0%}, iters-tol "
        f"{args.iters_tol:.0%}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
