#!/usr/bin/env python
"""Gate: supervised campaigns survive seeded chaos without losing work.

Three scenarios over turbine_tiny sweeps run under the campaign
supervisor (:class:`repro.campaign.Supervisor`):

1. **Chaos sweep, zero lost jobs** — a 24-job sweep under a seeded,
   job-pinned fault schedule (worker crashes at every boundary: before
   lease, after lease, mid-solve, mid-checkpoint-write, before the
   outcome report; a mid-solve hang caught by heartbeat staleness; a
   result-store write-fault window absorbed by store retries) must
   finish with every job ``done``, and every stored result document
   must be **bitwise identical** to a fault-free reference run of the
   same spec (killed attempts resume from their checkpoint ring, and
   the canonical result format carries cumulative solve history, so
   chaos cannot leak into results).
2. **Counter contract, deterministic** — the chaos run's
   ``campaign.retries`` / ``requeues`` / ``quarantined`` /
   ``lease_expired`` / ``store_retries`` counters must match their exact expected values, and a repeat of the same
   chaos run (fresh campaign directory, same schedule) must reproduce
   them identically — fault matching is keyed on ``(job, attempt)``,
   never on scheduling order.
3. **Quarantine semantics** — (a) a job crashed on every allowed
   attempt is quarantined with its per-attempt failure context and the
   rest of the sweep completes ("done with quarantined"); (b) a
   deterministic solver failure (injected fault with recovery
   disabled) is quarantined *immediately* — transient-only retry means
   ``campaign.retries`` stays 0.

Usage::

    python benchmarks/check_campaign_chaos.py [--workers 4]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.campaign import Campaign, CampaignSpec, SupervisorPolicy  # noqa: E402
from repro.resilience import FaultInjector, FaultSpec  # noqa: E402

#: Counters whose exact values the gate pins.
COUNTERS = (
    "retries",
    "requeues",
    "quarantined",
    "lease_expired",
    "store_retries",
)


def build_spec(name: str) -> CampaignSpec:
    """A 24-job sweep (12 seeds x 2 dt values) with checkpoint rings."""
    return CampaignSpec(
        name=name,
        workload="turbine_tiny",
        steps=2,
        seeds=tuple(range(12)),
        grid={"dt": [0.05, 0.08]},
        base={"nranks": 2},
        checkpoint_every=1,
    )


def chaos_schedule(jobs) -> list[FaultSpec]:
    """The seeded fault schedule, pinned to job ids and attempt 0.

    Crashes hit every fault-domain boundary; the hang exercises
    heartbeat-based detection; the two-entry ``io_fail`` window on one
    job's store path is absorbed by the supervisor's store retries
    (budget 3) without costing a job attempt.
    """
    return [
        FaultSpec(kind="worker_crash", at=0, point="spawn", job=jobs[0].job_id),
        FaultSpec(kind="worker_crash", at=0, point="lease", job=jobs[3].job_id),
        FaultSpec(kind="worker_crash", at=0, point="run", job=jobs[6].job_id),
        FaultSpec(kind="worker_crash", at=0, point="ckpt", job=jobs[9].job_id),
        FaultSpec(
            kind="worker_crash", at=0, point="store", job=jobs[12].job_id
        ),
        FaultSpec(kind="worker_hang", at=0, point="run", job=jobs[15].job_id),
        FaultSpec(kind="io_fail", at=0, entries=2, job=jobs[18].digest()),
    ]


#: Expected counter contract of ``chaos_schedule``: five crash retries,
#: one hang requeue (whose kill is also the one expired lease), two
#: absorbed store retries, nothing quarantined.
EXPECTED = {
    "retries": 5,
    "requeues": 1,
    "quarantined": 0,
    "lease_expired": 1,
    "store_retries": 2,
}


def chaos_policy() -> SupervisorPolicy:
    # Heartbeat far above the worst inter-beat gap seen under full
    # worker contention (~7s measured fault-free at 4 workers on a
    # loaded container) — a single spurious kill would break the exact
    # counter contract, and the gate only pays the detection wait once
    # per run, for the one injected hang.
    return SupervisorPolicy(
        max_attempts=3,
        heartbeat_timeout_s=30.0,
        backoff_base_s=0.01,
        backoff_max_s=0.05,
    )


def run_chaos(spec, root: str, workers: int) -> tuple[Campaign, dict]:
    camp = Campaign(
        spec,
        root,
        workers=workers,
        policy=chaos_policy(),
        chaos=FaultInjector(chaos_schedule(spec.expand()), seed=2021),
    )
    return camp, camp.run()


def check_chaos_sweep(tmp: str, workers: int) -> list[str]:
    failures: list[str] = []
    spec = build_spec("chaos_gate")
    jobs = spec.expand()
    n_jobs = len(jobs)
    if n_jobs != 24:
        failures.append(f"expected a 24-job sweep, got {n_jobs}")

    # Fault-free reference (same supervised policy, no chaos).
    ref = Campaign(
        spec,
        os.path.join(tmp, "ref"),
        workers=workers,
        policy=chaos_policy(),
    )
    s_ref = ref.run()
    if s_ref["status_counts"]["done"] != n_jobs:
        failures.append(f"reference run: {s_ref['status_counts']}")
    if any(s_ref[c] != 0 for c in COUNTERS):
        failures.append(
            "reference run: supervised counters not all zero: "
            + str({c: s_ref[c] for c in COUNTERS})
        )

    camp_a, s_a = run_chaos(spec, os.path.join(tmp, "chaos_a"), workers)

    # 1. Zero lost jobs, everything done.
    if s_a["status_counts"]["done"] != n_jobs:
        failures.append(f"chaos run: {s_a['status_counts']} (lost jobs)")

    # 1b. Bitwise-identical stored results, job by job.
    for job in jobs:
        digest = job.digest()
        b_ref = ref.store.get_bytes(digest)
        b_chaos = camp_a.store.get_bytes(digest)
        if b_ref is None or b_chaos is None:
            failures.append(f"job {job.job_id}: missing stored result")
        elif b_ref != b_chaos:
            failures.append(
                f"job {job.job_id}: chaos-run result differs bitwise "
                "from the fault-free reference"
            )

    # 2. Exact counter contract...
    got_a = {c: s_a[c] for c in COUNTERS}
    if got_a != EXPECTED:
        failures.append(f"chaos run counters {got_a} != expected {EXPECTED}")
    if s_a["jobs_resumed"] < 1:
        failures.append(
            "chaos run: no job resumed from its checkpoint ring "
            "(kills after the first checkpoint must requeue-with-resume)"
        )

    # ...reproduced identically by a repeat run of the same schedule.
    _camp_b, s_b = run_chaos(spec, os.path.join(tmp, "chaos_b"), workers)
    got_b = {c: s_b[c] for c in COUNTERS}
    if got_b != got_a:
        failures.append(
            f"repeat chaos run counters drifted: {got_b} != {got_a}"
        )
    if s_b["status_counts"]["done"] != n_jobs:
        failures.append(f"repeat chaos run: {s_b['status_counts']}")
    return failures


def check_quarantine(tmp: str, workers: int) -> list[str]:
    failures: list[str] = []
    spec = CampaignSpec(
        name="chaos_gate_poison",
        workload="turbine_tiny",
        steps=1,
        seeds=(0, 1),
        base={"nranks": 2},
    )
    jobs = spec.expand()
    # (a) Exhaust the retry budget: crash one job on both allowed
    # attempts; the other job must still complete.
    chaos = FaultInjector(
        [
            FaultSpec(
                kind="worker_crash", at=0, point="spawn", job=jobs[0].job_id
            ),
            FaultSpec(
                kind="worker_crash", at=1, point="lease", job=jobs[0].job_id
            ),
        ],
        seed=2021,
    )
    camp = Campaign(
        spec,
        os.path.join(tmp, "poison"),
        workers=workers,
        policy=SupervisorPolicy(max_attempts=2, backoff_base_s=0.01),
        chaos=chaos,
    )
    s = camp.run()
    counts = s["status_counts"]
    if counts["quarantined"] != 1 or counts["done"] != 1:
        failures.append(f"poison sweep: {counts} (want 1 done, 1 quarantined)")
    if s["retries"] != 1 or s["quarantined"] != 1:
        failures.append(
            f"poison sweep: retries {s['retries']} quarantined "
            f"{s['quarantined']} (want 1 and 1)"
        )
    entry = camp.manifest.jobs[jobs[0].digest()]
    attempts = entry.get("attempts", [])
    if len(attempts) != 2 or entry.get("taxonomy") != "worker_crash":
        failures.append(
            "poison sweep: quarantined entry lacks its failure context "
            f"(attempts {len(attempts)}, taxonomy {entry.get('taxonomy')!r})"
        )

    # (b) Deterministic solver failure: recovery disabled + injected
    # exchange corruption -> SolverFailure (nonfinite taxonomy), which
    # must quarantine immediately (transient-only retry).
    det_spec = CampaignSpec(
        name="chaos_gate_det",
        workload="turbine_tiny",
        steps=2,
        seeds=(0,),
        base={
            "nranks": 2,
            "faults": [{"kind": "exchange_nan", "at": 40, "entries": 1}],
            "fault_seed": 7,
            "recovery": {"enabled": False},
        },
    )
    det = Campaign(
        det_spec,
        os.path.join(tmp, "det"),
        workers=workers,
        policy=SupervisorPolicy(max_attempts=3),
    )
    s_det = det.run()
    if s_det["status_counts"]["quarantined"] != 1:
        failures.append(f"deterministic failure: {s_det['status_counts']}")
    if s_det["retries"] != 0:
        failures.append(
            f"deterministic failure retried {s_det['retries']} times — "
            "non-transient taxonomy classes must not burn retry budget"
        )
    d_entry = det.manifest.jobs[det_spec.expand()[0].digest()]
    if d_entry.get("taxonomy") not in (
        "nonfinite_iterate",
        "nonfinite_operands",
        "nonfinite_fields",
    ):
        failures.append(
            "deterministic failure: quarantine taxonomy "
            f"{d_entry.get('taxonomy')!r} is not a nonfinite_* class"
        )
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int, default=4)
    args = ap.parse_args()

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="campaign_chaos_") as tmp:
        failures += check_chaos_sweep(tmp, args.workers)
        failures += check_quarantine(tmp, min(args.workers, 2))

    if failures:
        print("campaign chaos gate: FAIL")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(
        "campaign chaos gate: OK (24-job sweep under seeded "
        "crash/hang/io chaos: zero lost jobs, bitwise-stable results, "
        "deterministic retry/requeue/quarantine counters)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
