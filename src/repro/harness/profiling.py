"""One profiled run (the drift gate's input).

``benchmarks/check_profile_regression.py`` runs a workload under the
timeline profiler and pins its ``repro.profile/1`` document; the CLI's
``python -m repro profile`` writes the same document for any run.
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.core.simulation import NaluWindSimulation
from repro.obs.profile import RunProfile


def profile_run(
    workload: str,
    nranks: int,
    n_steps: int = 1,
    config: SimulationConfig | None = None,
    machine: str = "summit-gpu",
) -> RunProfile:
    """Run one workload under the profiler and return its profile."""
    cfg = config or SimulationConfig()
    cfg.nranks = nranks
    cfg.profile = True
    cfg.profile_machine = machine
    sim = NaluWindSimulation(workload, cfg)
    report = sim.run(n_steps)
    return report.profile
