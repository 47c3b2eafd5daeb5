#!/usr/bin/env python
"""Gate the communication-avoiding solver contracts; fail on violation.

Tier-2 gate companion to ``check_telemetry_regression.py``.  Two modes:

* **self-check** (default, no arguments) — re-derive the contracts from
  scratch on small workloads:

  - exact allreduce counts: CG charges ``2 + 2*iters``, pipelined CG
    ``2 + iters``, the one-reduce orthogonalizer exactly 1 per Arnoldi
    step;
  - ``matvec(overlap=True)`` is bitwise identical to the synchronous
    path, including under an injected message drop and an injected
    payload corruption handled by the bounded retry protocol;
  - at 6 ranks the priced comm-wait fraction of a profiled run is
    *strictly* lower with the split halo exchange than without, and the
    split rounds show up in the telemetry's ``profile`` section
    (``summary.overlap_rounds``).

* **artifact mode** (``BENCH_comm_avoiding.json``) — validate a bench
  artifact from ``bench_comm_avoiding.py``: every overlap point must
  not exceed its synchronous twin's priced wall time (and must have a
  strictly lower wait fraction at 6 ranks), and the recorded reduction
  counts must match the contract.

The self-check runs simulations, so the script imports ``repro`` (same
pattern as ``check_restart_determinism.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)


def check_artifact(path: str) -> list[str]:
    """Validate one BENCH_comm_avoiding.json document."""
    failures: list[str] = []
    with open(path) as fh:
        doc = json.load(fh)

    points = doc.get("overlap_sweep", [])
    sync = {(p["figure"], p["ranks"]): p for p in points if not p["overlap"]}
    ovl = {(p["figure"], p["ranks"]): p for p in points if p["overlap"]}
    if set(sync) != set(ovl):
        failures.append("overlap sweep points not paired sync/overlap")
    for key in sorted(set(sync) & set(ovl)):
        s, o = sync[key], ovl[key]
        tag = f"{key[0]} r{key[1]}"
        if o.get("wall_time_s", 0.0) > s.get("wall_time_s", 0.0):
            failures.append(
                f"{tag}: overlap wall time {o['wall_time_s']:.6f}s "
                f"exceeds sync {s['wall_time_s']:.6f}s"
            )
        if key[1] == 6 and not o["wait_fraction"] < s["wait_fraction"]:
            failures.append(
                f"{tag}: overlap wait fraction not strictly lower "
                f"({o['wait_fraction']:.6f} vs {s['wait_fraction']:.6f})"
            )
        if not o["overlap_rounds"] > 0:
            failures.append(f"{tag}: no split rounds recorded under overlap")

    contract = doc.get("reduction_contract", {})
    for name, expect in (("cg", 2), ("pipelined_cg", 1)):
        r = contract.get(name)
        if r is None:
            continue
        want = 2 + expect * r["iterations"]
        if r["collectives"] != want:
            failures.append(
                f"{name}: {r['collectives']} allreduces for "
                f"{r['iterations']} iterations (contract: {want})"
            )
    return failures


def self_check() -> list[str]:
    """Re-derive the contracts on small workloads."""
    import numpy as np
    from scipy import sparse

    from repro.comm import SimWorld
    from repro.core.config import SimulationConfig
    from repro.core.simulation import NaluWindSimulation
    from repro.krylov import CG, PipelinedCG, orthogonalize
    from repro.linalg import ParCSRMatrix
    from repro.resilience.injection import FaultInjector, FaultSpec
    from repro.resilience.policy import recovery_findings

    failures: list[str] = []

    def poisson2d(nx):
        T = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], (nx, nx))
        return (
            sparse.kron(sparse.eye(nx), T) + sparse.kron(T, sparse.eye(nx))
        ).tocsr()

    def par(A, nranks=4):
        w = SimWorld(nranks)
        offs = np.linspace(0, A.shape[0], nranks + 1).astype(np.int64)
        return w, ParCSRMatrix(w, A, offs)

    # 1. Exact reduction counts.
    A = poisson2d(12)
    for name, klass, per_iter in (("cg", CG, 2), ("pipelined_cg", PipelinedCG, 1)):
        w, M = par(A)
        res = klass(M, tol=1e-8, max_iters=300).solve(
            M.new_vector(np.ones(A.shape[0]))
        )
        want = 2 + per_iter * res.iterations
        got = w.traffic.collective_count()
        if not res.converged:
            failures.append(f"{name}: did not converge on poisson2d(12)")
        elif got != want:
            failures.append(
                f"{name}: {got} allreduces for {res.iterations} "
                f"iterations (contract: {want})"
            )
    w = SimWorld(2)
    rng = np.random.default_rng(0)
    V, _ = np.linalg.qr(rng.standard_normal((64, 6)))
    orthogonalize(
        w, V, rng.standard_normal(64), np.array([0, 32, 64]), "one_reduce"
    )
    if w.traffic.collective_count() != 1:
        failures.append(
            f"one_reduce orthogonalizer charged "
            f"{w.traffic.collective_count()} allreduces (contract: 1)"
        )

    # 2. Bitwise overlap parity, clean and under injected faults.
    rng = np.random.default_rng(7)
    xv = rng.standard_normal(A.shape[0])
    _w0, M0 = par(A)
    y_ref = M0.matvec(M0.new_vector(xv)).data
    for label, specs in (
        ("clean", ()),
        ("message_drop", (FaultSpec("message_drop", at=0),)),
        ("message_corrupt", (FaultSpec("message_corrupt", at=0),)),
    ):
        w, M = par(A)
        if specs:
            w.fault_injector = FaultInjector(specs)
        y = M.matvec(M.new_vector(xv), overlap=True).data
        if not np.array_equal(y, y_ref):
            failures.append(
                f"matvec(overlap=True) not bitwise identical ({label})"
            )
        if specs and w.metrics.counter_total("comm.retries") < 1.0:
            failures.append(f"retry protocol did not engage ({label})")

    # 3. Profiled run at 6 ranks: wait fraction strictly lower with
    # the split exchange.
    fracs = {}
    for overlap in (False, True):
        cfg = SimulationConfig(nranks=6)
        cfg.profile = True
        for sc in (
            cfg.momentum_solver, cfg.scalar_solver, cfg.pressure_solver
        ):
            sc.overlap = overlap
        rep = NaluWindSimulation("turbine_tiny", cfg).run(1)
        failures += [
            f"fault-free profiled run (overlap={overlap}): {f}"
            for f in recovery_findings(rep.recovery)
        ]
        s = rep.telemetry.profile["summary"]
        fracs[overlap] = s
        if overlap and not s["overlap_rounds"] > 0:
            failures.append("no split rounds recorded in profiled run")
    if not fracs[True]["wait_fraction"] < fracs[False]["wait_fraction"]:
        failures.append(
            "wait fraction not strictly lower with overlap at 6 ranks "
            f"({fracs[True]['wait_fraction']:.6f} vs "
            f"{fracs[False]['wait_fraction']:.6f})"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "artifact", nargs="?",
        help="BENCH_comm_avoiding.json to validate (default: self-check)",
    )
    args = ap.parse_args(argv)

    failures = (
        check_artifact(args.artifact) if args.artifact else self_check()
    )
    if failures:
        print("comm-avoiding contract violations:")
        for f in failures:
            print(f"  - {f}")
        return 1
    mode = args.artifact or "self-check"
    print(f"comm-avoiding OK: {mode}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
