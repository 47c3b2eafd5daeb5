#!/usr/bin/env python
"""Gate: campaign results are deterministic and the cache is exact.

Three checks over one small sweep (``turbine_tiny``, one rank count,
several seeds):

1. **Parallel == serial, bitwise** — the sweep run on the inline
   executor (``workers=0``) and on 2 forked workers must store
   byte-identical result documents for every job
   (``repro.campaign.result/2`` is canonical JSON of deterministic
   quantities only, so scheduling cannot leak in).
2. **Repeat sweep == 100% cache hits** — a fresh campaign pointed at
   the serial run's result store must serve every job from the cache
   (``campaign.cache_hits == n_jobs``, ``campaign.jobs_run == 0``) and
   return the stored bytes untouched.
3. **Counter book-keeping** — ``campaign.cache_misses`` on the first
   run equals the job count and ``campaign.jobs_failed`` stays zero
   everywhere.

Usage::

    python benchmarks/check_campaign_determinism.py [--seeds 2] [--ranks 2]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.campaign import Campaign, CampaignSpec  # noqa: E402


def build_spec(seeds: int, ranks: int) -> CampaignSpec:
    return CampaignSpec(
        name="determinism_gate",
        workload="turbine_tiny",
        steps=1,
        seeds=tuple(range(seeds)),
        base={"nranks": ranks},
    )


def check(seeds: int, ranks: int, tmp: str) -> list[str]:
    failures: list[str] = []
    spec = build_spec(seeds, ranks)
    n_jobs = len(spec.expand())

    serial = Campaign(spec, os.path.join(tmp, "serial"), workers=0)
    s_serial = serial.run()
    if s_serial["status_counts"]["done"] != n_jobs:
        failures.append(
            f"serial run: {s_serial['status_counts']} (want {n_jobs} done)"
        )
    if s_serial["cache_misses"] != n_jobs:
        failures.append(
            f"serial run: cache_misses {s_serial['cache_misses']} != {n_jobs}"
        )
    if s_serial["jobs_failed"] != 0:
        failures.append(f"serial run: {s_serial['jobs_failed']} jobs failed")

    parallel = Campaign(spec, os.path.join(tmp, "parallel"), workers=2)
    s_par = parallel.run()
    if s_par["status_counts"]["done"] != n_jobs:
        failures.append(
            f"parallel run: {s_par['status_counts']} (want {n_jobs} done)"
        )
    for job in spec.expand():
        digest = job.digest()
        b_serial = serial.store.get_bytes(digest)
        b_par = parallel.store.get_bytes(digest)
        if b_serial is None or b_par is None:
            failures.append(f"job {job.job_id}: missing stored result")
        elif b_serial != b_par:
            failures.append(
                f"job {job.job_id}: serial and 2-worker stored results "
                "differ bitwise"
            )

    # Repeat sweep against the serial store: every job must be a hit.
    repeat = Campaign(
        spec,
        os.path.join(tmp, "repeat"),
        store_dir=os.path.join(tmp, "serial", "store"),
    )
    s_rep = repeat.run()
    if s_rep["cache_hits"] != n_jobs or s_rep["jobs_run"] != 0:
        failures.append(
            f"repeat sweep: cache_hits {s_rep['cache_hits']} "
            f"jobs_run {s_rep['jobs_run']} (want {n_jobs} hits, 0 runs)"
        )
    if s_rep["status_counts"]["done"] != n_jobs:
        failures.append(f"repeat sweep: {s_rep['status_counts']}")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=2)
    ap.add_argument("--ranks", type=int, default=2)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="campaign_gate_") as tmp:
        failures = check(args.seeds, args.ranks, tmp)

    if failures:
        print("campaign determinism gate: FAIL")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(
        "campaign determinism gate: OK "
        f"({args.seeds} seeds x turbine_tiny, {args.ranks} ranks: "
        "serial == 2-worker bitwise, repeat sweep 100% cache hits)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
