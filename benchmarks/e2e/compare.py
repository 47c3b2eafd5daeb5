#!/usr/bin/env python3
"""Compare two bench_e2e result files: ``compare.py BASE.json NEW.json``.

One row per (workload, end-to-end metric) with base, new, ratio, bound and a
verdict:

* ``ok``          not worse than the base by more than the metric's bound
                  (or by less than its absolute floor);
* ``worse``       worse by more than the bound;
* ``unresolved``  worse by more than the bound, but the stored run-to-run
                  spread of either side is wider than the bound and the two
                  sides' runs overlap, so the files cannot tell.

Exit code 1 if any row is ``worse``.  Counts that repeat exactly (modeled
time, iterations, messages, flops) are listed when they differ; they do not
change the exit code, a PR states them.  Standard library only.
"""

from __future__ import annotations

import json
import sys

DETERMINISTIC = (
    "harness.modeled_nli_s",
    "krylov.iters_",
    "comm.messages_per_step",
    "comm.message_bytes_per_step",
    "comm.collectives_per_step",
    "perf.flops_per_step",
    "perf.kernel_bytes_per_step",
    "perf.launches_per_step",
)


def verdict(base: dict, new: dict, bound: dict) -> tuple[str, float]:
    """``(verdict, ratio new/base)`` of one metric on one workload."""
    b, n = base["value"], new["value"]
    ratio = n / b if b else float("inf") if n else 1.0
    sign = 1.0 if bound["better"] == "lower" else -1.0
    worse_by = sign * (n - b)
    if worse_by <= bound["floor"] or worse_by <= bound["bound"] * abs(b):
        return "ok", ratio
    spreads = [
        side.get("spread", {}).get("iqr_frac", 0.0) for side in (base, new)
    ]
    bs, ns = base.get("samples") or [b], new.get("samples") or [n]
    apart = (
        min(ns) > max(bs) if bound["better"] == "lower" else max(ns) < min(bs)
    )
    if max(spreads) > bound["bound"] and not apart:
        return "unresolved", ratio
    return "worse", ratio


def compare(base_doc: dict, new_doc: dict) -> tuple[list[tuple], list[str]]:
    """Rows ``(workload, metric, base, new, ratio, bound, verdict)`` + notes."""
    bounds = base_doc["bounds"]
    rows = []
    notes = []
    for name, base_wl in base_doc["workloads"].items():
        new_wl = new_doc["workloads"].get(name)
        if new_wl is None:
            notes.append(f"{name}: missing from the new file")
            rows.append((name, "*", 0.0, 0.0, 0.0, 0.0, "worse"))
            continue
        for metric, base_m in base_wl["end_to_end"].items():
            new_m = new_wl["end_to_end"].get(metric)
            if new_m is None:
                rows.append((name, metric, base_m["value"], 0.0, 0.0,
                             bounds[metric]["bound"], "worse"))
                continue
            v, ratio = verdict(base_m, new_m, bounds[metric])
            rows.append((name, metric, base_m["value"], new_m["value"],
                         ratio, bounds[metric]["bound"], v))
        for metric, base_m in base_wl["per_layer"].items():
            if not metric.startswith(DETERMINISTIC):
                continue
            new_v = new_wl["per_layer"].get(metric, {}).get("value")
            if new_v != base_m["value"]:
                notes.append(
                    f"{name}: {metric} {base_m['value']!r} -> {new_v!r}"
                )
    return rows, notes


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    rows, notes = compare(*docs)
    print(f"{'workload':22s} {'metric':18s} {'base':>12s} {'new':>12s} "
          f"{'ratio':>7s} {'bound':>6s}  verdict")
    for wl, metric, b, n, ratio, bound, v in rows:
        print(f"{wl:22s} {metric:18s} {b:12.6g} {n:12.6g} "
              f"{ratio:7.3f} {bound:6.3f}  {v}")
    print("deterministic counts:",
          "identical" if not notes else f"{len(notes)} differ")
    for note in notes:
        print(f"  {note}")
    worse = sum(1 for r in rows if r[-1] == "worse")
    unresolved = sum(1 for r in rows if r[-1] == "unresolved")
    print(f"{len(rows)} rows: {worse} worse, {unresolved} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
