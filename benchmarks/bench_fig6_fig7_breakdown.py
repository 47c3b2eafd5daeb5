"""Figures 6 and 7 — pressure-Poisson time breakdown, CPU and GPU.

The paper's stacked bars split the pressure-equation time per step into:
graph computation + physics (purple), local assembly (green), global
assembly (red), preconditioner setup (blue), and solve (orange).  Key
shapes: on the CPU, setup+solve dominate but scale well; on the GPU the
local assembly is ~4x faster than CPU while setup+solve scale poorly as
DoFs/GPU shrink; the pressure system consumes 60-70% of a time step at
scale.
"""

import numpy as np

from repro.core.equation_system import PHASES
from repro.harness import emit, equation_breakdown, format_table
from repro.perf import SUMMIT_CPU_GRP, SUMMIT_GPU


def _rows(sweep, machine):
    rows = []
    for rep in sweep:
        bd = equation_breakdown(rep, machine, "pressure")
        nranks = rep.config.nranks
        rows.append(
            [nranks / 6, nranks]
            + [f"{bd[s]:.3f}" for s in PHASES]
            + [f"{sum(bd.values()):.3f}"]
        )
    return rows


HEADERS = ["nodes", "ranks"] + list(PHASES) + ["total"]


def test_fig6_cpu_breakdown(fig3_sweep, benchmark):
    rows = _rows(fig3_sweep, SUMMIT_CPU_GRP)
    emit(
        "fig6",
        format_table(
            "Fig. 6 (scaled): CPU pressure-Poisson breakdown "
            "[s/step, Summit-CPU model]",
            HEADERS,
            rows,
            note="paper: preconditioner setup + solve dominate on the CPU "
            "but scale well.",
        ),
    )
    bd = equation_breakdown(fig3_sweep[-1], SUMMIT_CPU_GRP, "pressure")
    assert bd["precond_setup"] + bd["solve"] > 0.5 * sum(bd.values())
    benchmark.pedantic(
        equation_breakdown,
        args=(fig3_sweep[0], SUMMIT_CPU_GRP, "pressure"),
        rounds=1,
        iterations=1,
    )


def test_fig7_gpu_breakdown(fig3_sweep, benchmark):
    rows = _rows(fig3_sweep, SUMMIT_GPU)
    emit(
        "fig7",
        format_table(
            "Fig. 7 (scaled): GPU pressure-Poisson breakdown "
            "[s/step, Summit-GPU model]",
            HEADERS,
            rows,
            note="paper: AMG setup+solve dominate and their scaling "
            "degrades as DoFs/GPU decrease; local assembly shows ~4x "
            "speedup over the CPU.",
        ),
    )
    # GPU local assembly beats CPU local assembly by a healthy factor.
    gpu_bd = equation_breakdown(fig3_sweep[0], SUMMIT_GPU, "pressure")
    cpu_bd = equation_breakdown(
        fig3_sweep[0], SUMMIT_CPU_GRP, "pressure"
    )
    assert cpu_bd["local_assembly"] > 2.0 * gpu_bd["local_assembly"]
    # AMG setup+solve dominate the GPU pressure time at scale.
    bd = equation_breakdown(fig3_sweep[-1], SUMMIT_GPU, "pressure")
    assert bd["precond_setup"] + bd["solve"] > 0.5 * sum(bd.values())
    benchmark.pedantic(
        equation_breakdown,
        args=(fig3_sweep[0], SUMMIT_GPU, "pressure"),
        rounds=1,
        iterations=1,
    )


def test_pressure_dominates_nli(fig3_sweep, benchmark):
    """Paper §6: 'for 24 Summit nodes, the pressure-Poisson system
    consumes 60%-70% of a time step'."""
    from repro.harness.scaling import default_work_scale
    from repro.perf.cost import CostModel

    rep = fig3_sweep[-1]
    cm = CostModel(SUMMIT_GPU, default_work_scale(rep))
    nranks = rep.config.nranks
    totals = {"pressure": 0.0, "other": 0.0}
    for delta in rep.step_deltas():
        for ph, agg in delta.items():
            t = cm.price_aggregate(agg, nranks).total
            key = "pressure" if ph.startswith("pressure/") else "other"
            totals[key] += t
    frac = totals["pressure"] / (totals["pressure"] + totals["other"])
    print(f"\npressure fraction of NLI at {nranks} ranks: {frac:.2f}")
    assert frac > 0.45
    benchmark.pedantic(
        lambda: cm.price_aggregate(
            next(iter(rep.step_deltas()[0].values())), nranks
        ),
        rounds=1,
        iterations=1,
    )
