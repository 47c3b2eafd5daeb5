"""Ablations for the paper's individually-quantified optimizations (§5.1).

* Second inner Gauss-Seidel sweep: "has proven effective at reducing the
  number of GMRES iterations by roughly 2x for the momentum and scalar
  transport equations."
* Assembly variants: the optimized Algorithm 1 vs the cuSPARSE-style
  sparse-add vs hypre's general path ("more device memory, more data
  motion"); optimized accounts for ~50% of the gain over the baseline.
* AMG interpolation operators (§4.1): MM-ext family vs direct, plus
  aggressive-coarsening complexity reduction.
* CPU/GPU cross-over: "occurs around 20 Summit nodes ... roughly 200,000
  mesh nodes per GPU."
"""

import numpy as np
import pytest

from repro.amg import AMGHierarchy, AMGOptions, AMGPreconditioner
from repro.core.config import SimulationConfig
from repro.core.simulation import NaluWindSimulation
from repro.harness import (
    emit,
    equation_breakdown,
    format_table,
    nli_series,
    run_strong_scaling,
)
from repro.krylov import GMRES
from repro.perf import SUMMIT_CPU_GRP, SUMMIT_GPU


def test_ablation_inner_gs_sweeps(benchmark):
    """1 vs 2 inner Jacobi-Richardson sweeps in the SGS2 preconditioner.

    Run at a long time step (weak diagonal dominance) and few ranks (large
    local blocks), the regime where the inner triangular accuracy governs
    convergence — as it does at the paper's 1M-rows-per-rank scale.
    """
    iters = {}
    for inner in (1, 2):
        cfg = SimulationConfig(nranks=2, sgs_inner=inner, dt=1.5)
        cfg.momentum_solver.tol = 1e-8
        cfg.scalar_solver.tol = 1e-8
        sim = NaluWindSimulation("turbine_tiny", cfg)
        rep = sim.run(2)
        iters[inner] = {
            eq: rep.mean_iterations(eq) for eq in ("momentum", "scalar")
        }
    rows = [
        [eq, f"{iters[1][eq]:.2f}", f"{iters[2][eq]:.2f}",
         f"{iters[1][eq] / max(iters[2][eq], 1e-9):.2f}x"]
        for eq in ("momentum", "scalar")
    ]
    emit(
        "ablation_inner_sweeps",
        format_table(
            "Ablation: GMRES iterations vs inner GS sweeps (SGS2)",
            ["equation", "1 inner sweep", "2 inner sweeps", "reduction"],
            rows,
            note="paper: the second inner iteration reduces GMRES "
            "iterations by roughly 2x for momentum and scalar transport "
            "(the scaled systems here are more diagonally dominant, so "
            "the reproduced reduction is smaller; see EXPERIMENTS.md).",
        ),
    )
    assert iters[2]["momentum"] < iters[1]["momentum"]
    assert iters[2]["scalar"] < iters[1]["scalar"]

    cfg = SimulationConfig(nranks=6, sgs_inner=2)
    sim = NaluWindSimulation("turbine_tiny", cfg)
    benchmark.pedantic(sim.step, rounds=1, iterations=1)


def test_ablation_assembly_variants(benchmark):
    """Recorded data motion and memory of the three global-assembly paths.

    Algorithm 1 is measured in isolation on a real momentum local system so
    the staging footprints are not masked by solver allocations.
    """
    import time as _time

    from repro.assembly import assemble_global_matrix
    from repro.comm import SimWorld
    from repro.perf.cost import CostModel

    # Build one real local system from the turbine momentum graph.
    cfg = SimulationConfig(nranks=6)
    sim = NaluWindSimulation("turbine_tiny", cfg)
    sim.step()
    local = sim.momentum.assembler.finalize()
    num = sim.comp.numbering

    stats = {}
    wall = {}
    for variant in ("optimized", "sparse_add", "general"):
        w = SimWorld(6)
        t0 = _time.perf_counter()
        with w.phase_scope("ga"):
            assemble_global_matrix(w, num, local, variant=variant)
        wall[variant] = _time.perf_counter() - t0
        cm = CostModel(SUMMIT_GPU)
        stats[variant] = (
            cm.phase_time(w, "ga").total,
            w.ops.peak_alloc(),
        )
    rows = [
        [
            v,
            f"{stats[v][0] * 1e6:.1f}",
            f"{stats[v][1] / 1e6:.3f}",
            f"{wall[v] * 1e3:.1f}",
        ]
        for v in ("optimized", "sparse_add", "general")
    ]
    emit(
        "ablation_assembly",
        format_table(
            "Ablation: Algorithm 1 variants on a real momentum system",
            ["variant", "modeled time [us]", "peak staging [MB]",
             "host wall [ms]"],
            rows,
            note="paper §3.3: the general path needs more device memory "
            "and data motion; sparse-add gives little speed benefit but a "
            "smaller memory footprint than the full-sorting approach.",
        ),
    )
    assert stats["general"][0] > stats["optimized"][0]
    assert stats["general"][1] > stats["optimized"][1]
    assert stats["sparse_add"][1] < stats["optimized"][1]

    w = SimWorld(6)
    benchmark.pedantic(
        assemble_global_matrix,
        args=(w, num, local),
        kwargs={"variant": "optimized"},
        rounds=1,
        iterations=1,
    )


def test_ablation_amg_interpolation(pressure_matrix_low, benchmark):
    """Interpolation operators on the real pressure matrix (§4.1)."""
    import scipy.sparse as sp

    from repro.comm import SimWorld
    from repro.linalg import ParCSRMatrix, ParVector

    A = pressure_matrix_low
    rng = np.random.default_rng(0)
    rows = []
    results = {}
    for interp in ("direct", "bamg_direct", "mm_ext", "mm_ext_i"):
        w2 = SimWorld(6)
        M = ParCSRMatrix(w2, A.A, A.row_offsets)
        b = M.new_vector(rng.standard_normal(M.shape[0]))
        h = AMGHierarchy(M, AMGOptions(interp=interp, agg_levels=2))
        g = GMRES(M, preconditioner=AMGPreconditioner(h), tol=1e-6,
                  max_iters=200)
        res = g.solve(b)
        results[interp] = res.iterations
        rows.append(
            [
                interp,
                h.num_levels,
                f"{h.operator_complexity():.2f}",
                f"{h.grid_complexity():.2f}",
                res.iterations,
                str(res.converged),
            ]
        )
    emit(
        "ablation_amg_interp",
        format_table(
            "Ablation: AMG interpolation operators on the pressure matrix",
            ["interp", "levels", "op cx", "grid cx", "GMRES iters", "conv"],
            rows,
            note="paper §4.1: extended (MM-ext family) interpolation "
            "yields much better convergence than distance-one operators "
            "when PMIS leaves F-points without C-neighbors.",
        ),
    )
    assert results["mm_ext"] <= results["direct"]

    def setup_kernel():
        w2 = SimWorld(6)
        M = ParCSRMatrix(w2, A.A, A.row_offsets)
        return AMGHierarchy(M, AMGOptions(interp="mm_ext", agg_levels=2))

    benchmark.pedantic(setup_kernel, rounds=1, iterations=1)


def test_ablation_aggressive_coarsening(pressure_matrix_low, benchmark):
    """A-1 aggressive coarsening lowers hierarchy complexity (§4.1)."""
    from repro.comm import SimWorld
    from repro.linalg import ParCSRMatrix

    A = pressure_matrix_low
    rows = []
    cx = {}
    levels = {}
    for agg in (0, 2):
        w2 = SimWorld(6)
        M = ParCSRMatrix(w2, A.A, A.row_offsets)
        h = AMGHierarchy(M, AMGOptions(interp="mm_ext", agg_levels=agg))
        cx[agg] = (h.operator_complexity(), h.grid_complexity())
        levels[agg] = h.num_levels
        rows.append(
            [
                f"agg_levels={agg}",
                h.num_levels,
                f"{cx[agg][0]:.2f}",
                f"{cx[agg][1]:.2f}",
            ]
        )
    # What the shallow hierarchy costs the solver at the README operating
    # point (turbine_low @ 12, defaults): with the constraint rows on every
    # level (13 levels) it was 95 pressure iterations per step.
    rep = NaluWindSimulation("turbine_low", SimulationConfig(nranks=12)).run(2)
    pressure_iters = sum(rep.solve_iterations["pressure"]) / rep.n_steps
    emit(
        "ablation_aggressive",
        format_table(
            "Ablation: aggressive coarsening and hierarchy complexity",
            ["config", "levels", "operator cx", "grid cx"],
            rows,
            note="paper §4.1: aggressive coarsening reduces the grid and "
            "operator complexities of the AMG hierarchy.  turbine_low @ 12 "
            f"ranks, defaults: {pressure_iters:.1f} pressure iterations per "
            "step.",
        ),
    )
    assert cx[2][0] < cx[0][0]
    assert cx[2][1] < cx[0][1]
    # Bands for what the table prints: a hierarchy that stalls on decoupled
    # rows (14 levels / grid complexity 1.89 before they became F-points)
    # can no longer stay green.
    assert levels[2] <= 6 and cx[2][1] < 1.3
    assert levels[0] <= 8
    assert pressure_iters <= 105

    w3 = SimWorld(6)
    M3 = ParCSRMatrix(w3, A.A, A.row_offsets)
    benchmark.pedantic(
        AMGHierarchy,
        args=(M3, AMGOptions(interp="mm_ext", agg_levels=2)),
        rounds=1,
        iterations=1,
    )


def test_crossover_dofs_per_gpu(fig3_sweep, benchmark):
    """CPU/GPU cross-over point (paper: ~200k mesh nodes per GPU)."""
    gpu = nli_series(fig3_sweep, SUMMIT_GPU, "gpu")
    cpu = nli_series(fig3_sweep, SUMMIT_CPU_GRP, "cpu")
    n_nodes = fig3_sweep[0].report.total_nodes * 1000  # paper scale
    rows = []
    crossover = None
    for i, pt in enumerate(fig3_sweep):
        dofs_per_gpu = n_nodes / pt.ranks
        faster = "GPU" if gpu.mean[i] < cpu.mean[i] else "CPU"
        rows.append(
            [
                pt.ranks / 6,
                f"{dofs_per_gpu:.3g}",
                f"{gpu.mean[i]:.3f}",
                f"{cpu.mean[i]:.3f}",
                faster,
            ]
        )
        if faster == "CPU" and crossover is None:
            crossover = dofs_per_gpu
    # If the curves do not cross inside the sweep, extrapolate the CPU
    # trend against the GPU's flat tail to locate the crossing.
    note = (
        "paper: cross-over around 20 Summit nodes, roughly 200,000 mesh "
        "nodes per GPU."
    )
    if crossover is None and len(gpu.mean) >= 3:
        cpu_slope = cpu.slope()
        gpu_tail = gpu.mean[-1]
        nodes_last = gpu.nodes[-1]
        cpu_last = cpu.mean[-1]
        if cpu_last > gpu_tail and cpu_slope < 0:
            factor = (gpu_tail / cpu_last) ** (1.0 / cpu_slope)
            est_nodes = nodes_last * factor
            est_dofs = n_nodes / (6 * est_nodes)
            note += (
                f"\nextrapolated cross-over: ~{est_nodes:.0f} Summit nodes "
                f"(~{est_dofs:.3g} mesh nodes/GPU)"
            )
    emit(
        "crossover",
        format_table(
            "CPU/GPU cross-over vs DoFs per GPU (paper-scale)",
            ["nodes", "DoFs/GPU", "GPU [s]", "CPU [s]", "faster"],
            rows,
            note=note,
        ),
    )
    # GPU must win when DoFs/GPU is large.
    assert gpu.mean[0] < cpu.mean[0] or gpu.mean[1] < cpu.mean[1]
    benchmark.pedantic(
        nli_series, args=(fig3_sweep, SUMMIT_GPU), rounds=1, iterations=1
    )


def test_cold_start_overhead(benchmark):
    """Paper §5: the cold-start transient 'will require more GMRES
    iterations per equation system.  However, our simulations indicate the
    overhead is less than 20%'."""
    cfg = SimulationConfig(nranks=6)
    sim = NaluWindSimulation("turbine_tiny", cfg)
    rep = sim.run(6)
    picard = cfg.picard_iterations

    def mean_iters(eq, steps):
        per_solve = rep.solve_iterations[eq]
        solves_per_step = len(per_solve) // rep.n_steps
        vals = []
        for s in steps:
            vals.extend(
                per_solve[s * solves_per_step : (s + 1) * solves_per_step]
            )
        return float(np.mean(vals))

    rows = []
    overheads = {}
    for eq in ("momentum", "pressure", "scalar"):
        early = mean_iters(eq, [0, 1])
        late = mean_iters(eq, [4, 5])
        overheads[eq] = early / max(late, 1e-9) - 1.0
        rows.append(
            [eq, f"{early:.2f}", f"{late:.2f}", f"{100 * overheads[eq]:.1f}%"]
        )
    emit(
        "ablation_cold_start",
        format_table(
            "Cold-start transient overhead (iterations, first vs settled steps)",
            ["equation", "steps 1-2", "steps 5-6", "overhead"],
            rows,
            note="paper §5: the cold-start overhead is less than 20%.",
        ),
    )
    # The transient must not blow the budget; allow generous slack on the
    # tiny scaled system.
    assert overheads["pressure"] < 0.5


def test_ablation_amg_refresh(benchmark):
    """One BoomerAMG set-up per pressure solve (the cadence the paper
    measured, and what every figure here is priced at) against the
    default rule: set up when the operator's pattern moved — once per
    step — and refresh the Galerkin values while it holds."""
    ranks = [6, 12]
    default = SimulationConfig().precond_rebuild_every
    rows = []
    nli, iters = {}, {}
    for bound in (1, default):
        points = run_strong_scaling(
            "turbine_low",
            ranks,
            n_steps=2,
            config=SimulationConfig(precond_rebuild_every=bound),
        )
        nli[bound] = nli_series(points, SUMMIT_GPU).mean
        iters[bound] = [
            sum(pt.report.solve_iterations["pressure"]) for pt in points
        ]
        for pt, mean in zip(points, nli[bound]):
            setup = equation_breakdown(pt.report, SUMMIT_GPU, "pressure")[
                "precond_setup"
            ]
            its = pt.report.solve_iterations["pressure"]
            rows.append(
                [
                    str(bound),
                    str(pt.ranks),
                    f"{mean:.3f}",
                    f"{setup:.3f}",
                    f"{sum(its) / pt.report.n_steps:.1f}",
                ]
            )
    emit(
        "ablation_amg_refresh",
        format_table(
            "Ablation: AMG set-up per solve vs set-up per step + refresh "
            "(turbine_low, Summit GPU, 2 steps x 4 Picard)",
            ["precond_rebuild_every", "ranks", "NLI [s/step]",
             "pressure set-up [s/step]", "pressure iters/step"],
            rows,
            note="cadence 1 is the paper's: Figs. 6-7 and 11 price one "
            "set-up per pressure solve.  Under the default, 3 of a step's "
            "4 set-ups are numeric Galerkin refreshes on the frozen "
            "coarsening and interpolation.",
        ),
    )
    for at_one, at_default in zip(nli[1], nli[default]):
        assert at_default < at_one
    for at_one, at_default in zip(iters[1], iters[default]):
        assert at_default <= 1.10 * at_one

    sim = NaluWindSimulation("turbine_tiny", SimulationConfig(nranks=2))
    benchmark.pedantic(sim.step, rounds=1, iterations=1)


def test_per_equation_gpu_advantage(fig3_sweep, benchmark):
    """Paper §5.1: 'the momentum and turbulent scalar-transport solves show
    better performance for fewer mesh nodes per device' — they lack AMG's
    communication burden, so their GPU advantage survives to smaller
    DoFs/GPU than the pressure solve's."""
    from repro.harness import equation_breakdown

    pt = fig3_sweep[-1]  # smallest DoFs/GPU in the sweep
    rows = []
    ratios = {}
    for eq in ("momentum", "scalar", "pressure"):
        gpu = sum(
            equation_breakdown(pt.report, SUMMIT_GPU, eq).values()
        )
        cpu = sum(
            equation_breakdown(pt.report, SUMMIT_CPU_GRP, eq).values()
        )
        ratios[eq] = cpu / max(gpu, 1e-12)
        rows.append([eq, f"{gpu:.3f}", f"{cpu:.3f}", f"{ratios[eq]:.2f}x"])
    emit(
        "ablation_per_equation",
        format_table(
            f"Per-equation GPU advantage at {pt.ranks} ranks "
            "(CPU time / GPU time)",
            ["equation", "GPU [s]", "CPU [s]", "GPU advantage"],
            rows,
            note="paper §5.1: momentum/scalar (GMRES+SGS2, no AMG comm "
            "burden) keep their GPU advantage to fewer nodes per device "
            "than pressure.",
        ),
    )
    assert ratios["momentum"] > ratios["pressure"]
    benchmark.pedantic(
        equation_breakdown,
        args=(pt.report, SUMMIT_GPU, "momentum"),
        rounds=1,
        iterations=1,
    )
