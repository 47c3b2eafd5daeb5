"""Shared fixtures for the benchmark harness.

Every figure bench consumes one of the session-scoped sweeps below.  A
registered-workload sweep is a campaign (one job per rank count) run
through ``repro.campaign.Campaign`` against one session-scoped result
store, so a point two figures share (Fig. 3's optimized config is the AMG
ablation's cadence-1 point) runs once per session; its result is the
rank-ordered list of stored ledgers, priced as reports.  The store lives
for one session only: a job digest hashes the config, not the code.
Scales are adjustable through environment variables:

* ``REPRO_BENCH_STEPS``          time steps per run (default 2; paper: 50)
* ``REPRO_BENCH_RANKS``          low-res rank sweep (default ``3,6,12,24,48,96``)
* ``REPRO_BENCH_DUAL_RANKS``     dual-turbine sweep (default ``6,12,24``)
* ``REPRO_BENCH_REFINED_RANKS``  refined sweep (default ``6,12,24,48``)
* ``REPRO_BENCH_REFINE``         refined-mesh refinement factor (default 2;
  the paper's refined mesh corresponds to 3)
"""

import os

import pytest

from repro.campaign import Campaign, CampaignSpec
from repro.core.config import SimulationConfig
from repro.core.simulation import NaluWindSimulation
from repro.mesh import make_turbine_low


def _env_list(name: str, default: str) -> list[int]:
    return [int(x) for x in os.environ.get(name, default).split(",") if x]


BENCH_STEPS = int(os.environ.get("REPRO_BENCH_STEPS", "2"))
LOW_RANKS = _env_list("REPRO_BENCH_RANKS", "3,6,12,24,48,96")
DUAL_RANKS = _env_list("REPRO_BENCH_DUAL_RANKS", "6,12,24")
REFINED_RANKS = _env_list("REPRO_BENCH_REFINED_RANKS", "6,12,24,48")
REFINE = int(os.environ.get("REPRO_BENCH_REFINE", "2"))

# Rank -> device-group mappings: the paper ran the dual-turbine mesh on
# 24-288 GPUs and the refined mesh on 768-4320 GPUs; the simulator's rank
# counts are mapped onto device groups so the priced operating points
# (DoFs/GPU, memory/GPU) land on the paper's (see harness.nli_step_times).
DUAL_GPUS_PER_RANK = int(os.environ.get("REPRO_BENCH_DUAL_GPR", "1"))
REFINED_GPUS_PER_RANK = int(os.environ.get("REPRO_BENCH_REFINED_GPR", "90"))

#: The paper's optimized configuration (current implementation), as
#: overrides.  Figs. 6-7 and 11 price one BoomerAMG set-up per pressure
#: solve.
OPTIMIZED = {
    "assembly_variant": "optimized",
    "partition_method": "parmetis",
    "sgs_inner": 2,
    "precond_rebuild_every": 1,
}

#: The paper's baseline GPU configuration: general hypre assembly, RCB
#: decomposition, single inner Gauss-Seidel sweep.
BASELINE = {
    "assembly_variant": "general",
    "partition_method": "rcb",
    "sgs_inner": 1,
    "precond_rebuild_every": 1,
}


def optimized_config() -> SimulationConfig:
    """The paper's optimized configuration (:data:`OPTIMIZED`)."""
    return SimulationConfig.from_dict(OPTIMIZED)


@pytest.fixture(scope="session")
def sweep(tmp_path_factory):
    """``sweep(name, workload, ranks, base, steps)``: one job per rank
    count through the campaign runner, against the session's store;
    returns the stored results, rank-ordered, as priceable reports."""
    root = tmp_path_factory.mktemp("campaigns")
    store = str(root / "store")

    def run(name, workload, ranks, base, steps=BENCH_STEPS):
        spec = CampaignSpec(
            name=name, workload=workload, steps=steps, base=base,
            grid={"nranks": list(ranks)},
        )
        campaign = Campaign(spec, str(root / name), store_dir=store)
        campaign.run()
        return campaign.reports()

    return run


@pytest.fixture(scope="session")
def fig3_sweep(sweep):
    """turbine_low strong-scaling sweep, optimized configuration."""
    return sweep("fig3", "turbine_low", LOW_RANKS, OPTIMIZED)


@pytest.fixture(scope="session")
def fig3_baseline_sweep(sweep):
    """turbine_low sweep with the paper's baseline configuration."""
    return sweep("fig3_baseline", "turbine_low", LOW_RANKS, BASELINE)


@pytest.fixture(scope="session")
def fig8_sweep(sweep):
    """turbine_dual strong-scaling sweep."""
    return sweep("fig8", "turbine_dual", DUAL_RANKS, OPTIMIZED)


@pytest.fixture(scope="session")
def fig9_sweep():
    """Refined single-turbine sweep (one step per point: the mesh is big).

    The ``refine`` factor is not a registered workload, so this one stays a
    direct loop over reports."""
    from repro.mesh import make_turbine_refined

    reports = []
    for r in REFINED_RANKS:
        cfg = optimized_config()
        cfg.nranks = r
        sim = NaluWindSimulation(make_turbine_refined(refine=REFINE), cfg)
        reports.append(sim.run(max(1, BENCH_STEPS // 2)))
        # Free it before the next is built.
        del sim
    return reports


@pytest.fixture(scope="session")
def low_system():
    """The scaled low-resolution turbine mesh system (Figs. 5, ablations)."""
    return make_turbine_low()


@pytest.fixture(scope="session")
def pressure_matrix_low():
    """A real assembled pressure-Poisson ParCSR matrix from turbine_low."""
    cfg = optimized_config()
    cfg.nranks = 6
    sim = NaluWindSimulation("turbine_low", cfg)
    sim.step()
    # Re-assemble the pressure system from the current state.
    from repro.core.operators import boundary_mass_flux, mass_flux

    comp = sim.comp
    mdot = mass_flux(comp, sim.velocity, cfg.density)
    bflux = boundary_mass_flux(comp, sim.velocity, cfg.density)
    import numpy as np

    A, _rhs = sim.pressure.assemble(
        mdot=mdot,
        pressure_correction_bc=np.zeros(comp.n),
        boundary_flux=bflux,
    )
    return A
