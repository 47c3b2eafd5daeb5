"""Communication-avoiding solver benchmarks (paper §4.2-§4.3).

Two measurements, persisted together as
``benchmarks/results/BENCH_comm_avoiding.json``:

* **Overlap sweep** — the fig8 (dual-turbine) and fig9 (refined) rank
  counts re-run with the solver SpMV halo exchanges split
  (``matvec(overlap=True)``), against the synchronous baseline.  The
  priced wall time can only shrink (overlap is a monotone scheduling
  change) and the comm-wait fraction strictly drops at the 6-rank
  points, with the hidden transfer accounted in the telemetry's
  ``profile`` section (``summary.overlap_saved_wait_s``).  (At high rank
  counts the *ratio* may tick up even as wall time falls — hiding
  transfer shrinks the denominator too — so the fraction is gated only
  where the paper's fig8/fig9 sweeps start.)
* **Reduction contract** — preconditioned CG vs pipelined CG on a real
  assembled pressure-Poisson matrix: identical iteration counts, but
  ``2 + 2*iters`` vs ``2 + iters`` allreduces (one fused
  (gamma, delta, ||r||^2) reduction per pipelined iteration).

``benchmarks/check_comm_avoiding.py`` gates the JSON artifact.
"""

import json
import os

import numpy as np

from repro.core.simulation import NaluWindSimulation
from repro.harness import emit, format_table
from repro.harness.report import RESULTS_DIR
from repro.krylov import CG, PipelinedCG
from repro.mesh import make_turbine_refined
from repro.smoothers import make_smoother

from conftest import (
    BENCH_STEPS,
    DUAL_RANKS,
    REFINE,
    REFINED_RANKS,
    optimized_config,
)


def _profiled_point(workload, ranks: int, overlap: bool, n_steps: int):
    """One profiled run with the solver overlap toggled everywhere."""
    cfg = optimized_config()
    cfg.nranks = ranks
    cfg.profile = True
    for sc in (cfg.momentum_solver, cfg.scalar_solver, cfg.pressure_solver):
        sc.overlap = overlap
    sim = NaluWindSimulation(workload, cfg)
    profile = sim.run(n_steps).telemetry.profile
    s = profile["summary"]
    return {
        "ranks": ranks,
        "overlap": overlap,
        "wall_time_s": float(profile["wall_time_s"]),
        "wait_fraction": s["wait_fraction"],
        "comm_fraction": s["comm_fraction"],
        "overlap_rounds": s["overlap_rounds"],
        "overlap_saved_wait_s": s["overlap_saved_wait_s"],
    }


def _overlap_sweep(figure: str) -> list[dict]:
    if figure == "fig8":
        ranks_list, n_steps = DUAL_RANKS, BENCH_STEPS
        workloads = {r: "turbine_dual" for r in ranks_list}
    else:
        ranks_list, n_steps = REFINED_RANKS, max(1, BENCH_STEPS // 2)
        workloads = {r: make_turbine_refined(refine=REFINE) for r in ranks_list}
    points = []
    for r in ranks_list:
        for overlap in (False, True):
            pt = _profiled_point(workloads[r], r, overlap, n_steps)
            pt["figure"] = figure
            points.append(pt)
    return points


def test_overlap_wait_fraction_sweep(benchmark):
    """fig8/fig9 rank counts: split halo exchange vs synchronous."""
    points = _overlap_sweep("fig8") + _overlap_sweep("fig9")

    rows = []
    for fig in ("fig8", "fig9"):
        sync = {p["ranks"]: p for p in points
                if p["figure"] == fig and not p["overlap"]}
        ovl = {p["ranks"]: p for p in points
               if p["figure"] == fig and p["overlap"]}
        for r in sorted(sync):
            s, o = sync[r], ovl[r]
            rows.append([
                fig, r,
                f"{s['wait_fraction']:.4f}", f"{o['wait_fraction']:.4f}",
                f"{o['overlap_saved_wait_s']:.4f}",
                int(o["overlap_rounds"]),
            ])
            # Overlap is a monotone scheduling change: the priced wall
            # time can never grow; the wait fraction strictly drops at
            # the 6-rank operating points.
            assert o["wall_time_s"] <= s["wall_time_s"]
            if r == 6:
                assert o["wait_fraction"] < s["wait_fraction"]
            assert o["overlap_rounds"] > 0
            assert s["overlap_rounds"] == 0

    emit(
        "BENCH_comm_avoiding_overlap",
        format_table(
            "Split halo exchange: priced comm-wait fraction, sync vs overlap",
            ["figure", "ranks", "wait (sync)", "wait (overlap)",
             "saved [rank-s]", "split rounds"],
            rows,
            note="solver SpMVs only; the paper's comm-bound regime is "
            "the high-rank tail where halo transfer hides behind "
            "interior compute.",
        ),
    )

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "BENCH_comm_avoiding.json"), "w"
    ) as fh:
        json.dump({"overlap_sweep": points}, fh, indent=2)

    benchmark.pedantic(
        _profiled_point, args=("turbine_dual", 6, True, 1),
        rounds=1, iterations=1,
    )


def test_reduction_contract_on_pressure_matrix(pressure_matrix_low, benchmark):
    """CG vs pipelined CG on the assembled pressure-Poisson system."""
    A = pressure_matrix_low
    w = A.world
    b = np.asarray(
        np.sin(np.linspace(0.0, 4.0 * np.pi, A.shape[0]))
    )

    results = {}
    for name, klass in (("cg", CG), ("pipelined_cg", PipelinedCG)):
        before = w.traffic.collective_count()
        res = klass(
            A, preconditioner=make_smoother("jacobi", A),
            tol=1e-6, max_iters=500,
        ).solve(A.new_vector(b.copy()))
        results[name] = {
            "iterations": res.iterations,
            "converged": res.converged,
            "collectives": w.traffic.collective_count() - before,
        }

    cg, pcg = results["cg"], results["pipelined_cg"]
    assert cg["converged"] and pcg["converged"]
    # The per-iteration reduction contracts, exact.
    assert cg["collectives"] == 2 + 2 * cg["iterations"]
    assert pcg["collectives"] == 2 + pcg["iterations"]

    emit(
        "BENCH_comm_avoiding_reductions",
        format_table(
            "Allreduce counts on the assembled pressure-Poisson solve",
            ["method", "iterations", "allreduces", "per iteration"],
            [
                [n, r["iterations"], r["collectives"],
                 f"{(r['collectives'] - 2) / max(r['iterations'], 1):.0f}"]
                for n, r in results.items()
            ],
            note="pipelined CG fuses (r.u, w.u, ||r||^2) into one "
            "3-scalar allreduce per iteration (Ghysels-Vanroose).",
        ),
    )

    # Merge into the sweep artifact written by the overlap test when it
    # already ran this session; otherwise create the file fresh.
    path = os.path.join(RESULTS_DIR, "BENCH_comm_avoiding.json")
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc["reduction_contract"] = results
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)

    benchmark.pedantic(
        lambda: PipelinedCG(A, tol=1e-6, max_iters=5).solve(
            A.new_vector(b.copy())
        ),
        rounds=1, iterations=1,
    )
