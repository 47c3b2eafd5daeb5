#!/usr/bin/env python
"""Gate: checkpoint-at-N + restart must reproduce an uninterrupted run bitwise.

Runs the same workload twice:

* **run A** — 2N steps uninterrupted, writing a durable checkpoint every
  N steps into a retention ring;
* **run B** — a fresh process-equivalent simulation restarted from run
  A's checkpoint at step N, advanced to the same total of 2N steps.

The gate then asserts, at step 2N:

* every solution field (velocity, old velocity, pressure, pressure
  correction, scalar, old scalar, mass flux) is **bitwise identical**
  (``tobytes()`` equality, not ``allclose``);
* blade mesh coordinates and rotor angles match bitwise;
* step indices and the per-equation solve-iteration tails (the N
  post-restart steps) match exactly;
* telemetry counter continuity holds: ``solve.count`` and
  ``resilience.checkpoint.writes`` agree between the two runs;
* the modeled ledger (``ops`` and ``traffic`` state) is identical: the
  restart rebuilt the writer's live graphs, plans and hierarchy off the
  ledger, so its steps charge what the uninterrupted run's did;
* run A's fields equal those of a third run of 2N steps that writes no
  checkpoint: a checkpoint write changes nothing a run computes.

A second phase re-runs N steps under seeded ``message_drop`` /
``message_corrupt`` / ``io_fail`` injection and asserts the run completes
with the ``comm.*`` / ``resilience.*`` counters recording every recovery.

Usage::

    python benchmarks/check_restart_determinism.py [--workload turbine_tiny]
        [--ranks 2] [--half-steps 3]
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro import NaluWindSimulation, SimulationConfig  # noqa: E402
from repro.resilience import FaultSpec  # noqa: E402
from repro.resilience.checkpoint import FILE_PATTERN  # noqa: E402
from repro.resilience.policy import recovery_findings  # noqa: E402

#: Fields covered by the bitwise guarantee.
FIELDS = (
    "velocity",
    "velocity_old",
    "pressure_field",
    "pressure_correction",
    "scalar_field",
    "scalar_old",
    "mdot",
)


def ledger_rows(world) -> dict:
    """``ops`` and ``traffic`` state with rows in a canonical order (a
    restored ledger keeps the writer's insertion order)."""
    return {
        sink: {
            k: sorted(map(repr, rows))
            for k, rows in getattr(world, sink).state_dict().items()
        }
        for sink in ("ops", "traffic")
    }


def check_bitwise(workload: str, ranks: int, half: int, tmp: str) -> list[str]:
    """Phase 1: uninterrupted vs checkpoint-at-N + restart."""
    failures: list[str] = []
    ring_a = os.path.join(tmp, "ring_a")
    sim_a = NaluWindSimulation(
        workload,
        SimulationConfig(
            nranks=ranks,
            checkpoint_every=half,
            checkpoint_dir=ring_a,
            checkpoint_keep=2 * half + 1,
        ),
    )
    rep_a = sim_a.run(2 * half)

    ckpt = os.path.join(ring_a, FILE_PATTERN.format(step=half))
    if not os.path.exists(ckpt):
        return [f"expected checkpoint {ckpt} was not written"]
    sim_b = NaluWindSimulation(
        workload,
        SimulationConfig(
            nranks=ranks,
            checkpoint_every=half,
            checkpoint_dir=os.path.join(tmp, "ring_b"),
            checkpoint_keep=2 * half + 1,
            restart_from=ckpt,
        ),
    )
    rep_b = sim_b.run(2 * half)

    for name in FIELDS:
        a, b = getattr(sim_a, name), getattr(sim_b, name)
        if a.tobytes() != b.tobytes():
            failures.append(f"field {name!r} is not bitwise identical")
    for i, (ma, mb) in enumerate(zip(sim_a.system.blades, sim_b.system.blades)):
        if ma.coords.tobytes() != mb.coords.tobytes():
            failures.append(f"blade {i} coords are not bitwise identical")
    angles_a = [r.angle for r in sim_a.system.rotations]
    angles_b = [r.angle for r in sim_b.system.rotations]
    if angles_a != angles_b:
        failures.append(f"rotor angles differ: {angles_a} vs {angles_b}")

    if sim_a.step_index != sim_b.step_index:
        failures.append(
            f"step index differs: {sim_a.step_index} vs {sim_b.step_index}"
        )
    if sim_a.divergence_norms != sim_b.divergence_norms:
        failures.append("divergence-norm histories differ")
    # Iteration tails: run B only records its N post-restart solves.
    for eq, its_b in rep_b.solve_iterations.items():
        its_a = rep_a.solve_iterations[eq]
        if its_b and its_a[-len(its_b):] != its_b:
            failures.append(f"{eq} solve-iteration tail differs")

    for counter in ("solve.count", "resilience.checkpoint.writes"):
        ca = sim_a.world.metrics.counter_total(counter)
        cb = sim_b.world.metrics.counter_total(counter)
        if ca != cb:
            failures.append(f"counter {counter!r} differs: {ca} vs {cb}")
    rows_a, rows_b = ledger_rows(sim_a.world), ledger_rows(sim_b.world)
    for sink in rows_a:
        if rows_a[sink] != rows_b[sink]:
            failures.append(f"modeled {sink} ledger differs after restart")

    sim_c = NaluWindSimulation(workload, SimulationConfig(nranks=ranks))
    sim_c.run(2 * half)
    for name in FIELDS:
        if getattr(sim_a, name).tobytes() != getattr(sim_c, name).tobytes():
            failures.append(
                f"field {name!r} differs between checkpoint cadences "
                f"{half} and 0"
            )
    ckpt_b = (rep_b.recovery or {}).get("checkpoint", {})
    if ckpt_b.get("restores", 0) < 1:
        failures.append("run B recovery summary records no restore")
    for label, rep in (("A", rep_a), ("B", rep_b)):
        failures += [
            f"fault-free run {label}: {f}"
            for f in recovery_findings(rep.recovery)
        ]
    return failures


def check_faulted(workload: str, ranks: int, half: int, tmp: str) -> list[str]:
    """Phase 2: seeded drop/corrupt/io faults recover with counters."""
    failures: list[str] = []
    sim = NaluWindSimulation(
        workload,
        SimulationConfig(
            nranks=ranks,
            checkpoint_every=1,
            checkpoint_dir=os.path.join(tmp, "ring_faults"),
            faults=(
                FaultSpec("message_drop", at=3),
                FaultSpec("message_corrupt", at=40),
                FaultSpec("io_fail", at=0, entries=2),
            ),
            fault_seed=7,
        ),
    )
    rep = sim.run(half)
    m = sim.world.metrics
    checks = {
        "comm.retries": 2,  # one re-request per drop + per corrupt
        "comm.drops_detected": 1,
        "comm.corrupt_detected": 1,
        "resilience.checkpoint.write_retries": 2,
        "resilience.checkpoint.writes": half,
    }
    for counter, expected in checks.items():
        got = m.counter_total(counter)
        if got != expected:
            failures.append(
                f"faulted run: counter {counter!r} = {got}, expected "
                f"{expected}"
            )
    ckpt = (rep.recovery or {}).get("checkpoint", {})
    if ckpt.get("write_retries", 0) != 2:
        failures.append(
            "faulted run: recovery summary missing checkpoint write retries"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns 0 on pass, 1 on any mismatch."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="turbine_tiny")
    ap.add_argument("--ranks", type=int, default=2)
    ap.add_argument(
        "--half-steps", type=int, default=3,
        help="N: checkpoint cadence; runs advance 2N steps total (at 3, "
        "run A refreshes the pressure hierarchy across steps)",
    )
    args = ap.parse_args(argv)

    tmp = tempfile.mkdtemp(prefix="repro-restart-gate-")
    try:
        failures = check_bitwise(
            args.workload, args.ranks, args.half_steps, tmp
        )
        failures += check_faulted(
            args.workload, args.ranks, args.half_steps, tmp
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if failures:
        print(f"RESTART DETERMINISM FAILURES ({len(failures)}):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(
        f"restart determinism OK: {args.workload} ({args.ranks} ranks, "
        f"checkpoint at {args.half_steps}, run to {2 * args.half_steps}) "
        "bitwise-identical; faulted run recovered with counters intact"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
