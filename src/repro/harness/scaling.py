"""Strong-scaling experiment harness.

Runs the real simulation at a sweep of simulated rank counts, then prices
the recorded per-step work on any machine model.  One executed run yields
every curve that shares its numerics: the same turbine_low run is priced as
Summit-GPU, Summit-CPU, and Eagle-GPU (Figs. 3 and 11); the baseline curve
re-runs with the paper's pre-optimization configuration (general assembly,
one inner GS sweep, RCB decomposition).

Because the meshes are ~1000x smaller than the paper's (DESIGN.md §6), the
pricing applies ``work_scale = paper_nodes / simulated_nodes`` so the
simulated seconds land on the paper's scale; rank counts map to "Summit
nodes" through the machine's ``devices_per_node``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.equation_system import PHASES
from repro.core.simulation import NaluWindSimulation, SimulationReport
from repro.mesh.turbine import PAPER_TABLE1
from repro.perf.cost import CostModel, PhaseAggregate
from repro.perf.machines import MachineSpec


@dataclass
class ScalingPoint:
    """One executed run of a strong-scaling sweep."""

    ranks: int
    report: SimulationReport


@dataclass
class NLISeries:
    """One priced strong-scaling curve (a line in Figs. 3/8/9/11)."""

    label: str
    machine: MachineSpec
    nodes: list[float]
    ranks: list[int]
    mean: list[float]
    std: list[float]

    def slope(self) -> float:
        """Log-log slope of mean NLI time vs node count."""
        x = np.log(np.asarray(self.nodes, dtype=float))
        y = np.log(np.asarray(self.mean, dtype=float))
        if x.size < 2:
            return 0.0
        return float(np.polyfit(x, y, 1)[0])


def default_work_scale(report: SimulationReport) -> float:
    """paper mesh nodes / simulated mesh nodes for this workload."""
    paper = PAPER_TABLE1.get(report.workload)
    if paper is None:
        return 1.0
    return paper / report.total_nodes


def run_strong_scaling(
    workload: str,
    ranks_list: list[int],
    n_steps: int = 2,
    config: SimulationConfig | None = None,
) -> list[ScalingPoint]:
    """Execute the workload once per rank count.

    Without a ``config`` the sweep runs on the paper's cadence, one
    BoomerAMG set-up per pressure solve (``precond_rebuild_every=1``):
    that is what the strong-scaling figures price.
    """
    points = []
    for r in ranks_list:
        cfg = (
            replace(config)
            if config is not None
            else SimulationConfig(precond_rebuild_every=1)
        )
        cfg.nranks = r
        sim = NaluWindSimulation(workload, cfg)
        points.append(ScalingPoint(ranks=r, report=sim.run(n_steps)))
    return points


def nli_step_times(
    report: SimulationReport,
    machine: MachineSpec,
    work_scale: float | None = None,
    gpus_per_rank: float = 1.0,
) -> np.ndarray:
    """Per-step simulated NLI seconds on one machine.

    The NLI time covers everything inside the time step (paper §5: "time
    spent doing nonlinear iterations (i.e., GPU-accelerated physics and
    math algorithms)"): all equation phases plus motion/overset update.

    ``gpus_per_rank`` maps each simulated rank onto a *group* of devices:
    the paper's refined-mesh runs used ~90x more GPUs than this simulator
    can usefully rank-split, so pricing a refined sweep with
    ``gpus_per_rank=90`` divides each rank's scaled work across its group
    (per-device work, memory, and halo volume shrink accordingly, while
    per-device message counts — neighbor-bound — stay).
    """
    ws = default_work_scale(report) if work_scale is None else work_scale
    ws_eff = ws / gpus_per_rank
    cm = CostModel(machine, work_scale=ws_eff)
    nranks = report.config.nranks
    out = []
    for delta in report.step_deltas():
        total = 0.0
        for _ph, agg in delta.items():
            total += cm.price_aggregate(
                agg, nranks, report.peak_alloc_bytes / gpus_per_rank
            ).total
        out.append(total)
    return np.asarray(out)


def nli_series(
    points: list[ScalingPoint],
    machine: MachineSpec,
    label: str | None = None,
    work_scale: float | None = None,
    gpus_per_rank: float = 1.0,
) -> NLISeries:
    """Price a sweep into one strong-scaling curve.

    With ``gpus_per_rank`` > 1 each point's device count (hence node count
    on the x-axis) is the rank count times the group size.
    """
    nodes = []
    ranks = []
    means = []
    stds = []
    for pt in points:
        times = nli_step_times(
            pt.report, machine, work_scale, gpus_per_rank
        )
        nodes.append(
            pt.ranks * gpus_per_rank / machine.devices_per_node
        )
        ranks.append(pt.ranks)
        means.append(float(times.mean()))
        stds.append(float(times.std()))
    return NLISeries(
        label=label or machine.name,
        machine=machine,
        nodes=nodes,
        ranks=ranks,
        mean=means,
        std=stds,
    )


def equation_breakdown(
    report: SimulationReport,
    machine: MachineSpec,
    equation: str = "pressure",
    work_scale: float | None = None,
) -> dict[str, float]:
    """Per-phase seconds per time step for one equation (Figs. 6-7 bars).

    Returns phase-suffix -> mean simulated seconds per step.
    """
    ws = default_work_scale(report) if work_scale is None else work_scale
    cm = CostModel(machine, work_scale=ws)
    nranks = report.config.nranks
    sums: dict[str, float] = {suffix: 0.0 for suffix in PHASES}
    for delta in report.step_deltas():
        for suffix in PHASES:
            agg = delta.get(f"{equation}/{suffix}")
            if agg is None:
                continue
            sums[suffix] += cm.price_aggregate(
                agg, nranks, report.peak_alloc_bytes
            ).total
    n = max(report.n_steps, 1)
    return {k: v / n for k, v in sums.items()}
