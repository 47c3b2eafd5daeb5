"""Shared fixtures for the benchmark harness.

Every figure bench consumes one of the session-scoped sweeps below, so the
expensive simulations run once per pytest session.  Scales are adjustable
through environment variables:

* ``REPRO_BENCH_STEPS``          time steps per run (default 2; paper: 50)
* ``REPRO_BENCH_RANKS``          low-res rank sweep (default ``3,6,12,24,48,96``)
* ``REPRO_BENCH_DUAL_RANKS``     dual-turbine sweep (default ``6,12,24``)
* ``REPRO_BENCH_REFINED_RANKS``  refined sweep (default ``6,12,24,48``)
* ``REPRO_BENCH_REFINE``         refined-mesh refinement factor (default 2;
  the paper's refined mesh corresponds to 3)
"""

import os

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulation import NaluWindSimulation
from repro.harness import (
    emit_telemetry,
    export_sweep_profiles,
    run_strong_scaling,
)
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


def optimized_config() -> SimulationConfig:
    """The paper's optimized configuration (current implementation)."""
    return SimulationConfig(
        assembly_variant="optimized",
        partition_method="parmetis",
        sgs_inner=2,
        # Figs. 6-7 and 11 price one BoomerAMG set-up per pressure solve.
        precond_rebuild_every=1,
    )


def baseline_config() -> SimulationConfig:
    """The paper's baseline GPU configuration: general hypre assembly, RCB
    decomposition, single inner Gauss-Seidel sweep."""
    return SimulationConfig(
        assembly_variant="general",
        partition_method="rcb",
        sgs_inner=1,
        # Figs. 6-7 and 11 price one BoomerAMG set-up per pressure solve.
        precond_rebuild_every=1,
    )


def export_sweep_telemetry(points, name: str) -> None:
    """Persist each point's RunTelemetry under ``benchmarks/results/``.

    The JSON artifacts are the baseline/current inputs of
    ``benchmarks/check_telemetry_regression.py`` (tier-2 perf gate).
    """
    for pt in points:
        if pt.report.telemetry is not None:
            emit_telemetry(f"telemetry_{name}_r{pt.ranks}", pt.report.telemetry)


@pytest.fixture(scope="session")
def fig3_sweep():
    """turbine_low strong-scaling sweep, optimized configuration."""
    points = run_strong_scaling(
        "turbine_low", LOW_RANKS, n_steps=BENCH_STEPS, config=optimized_config()
    )
    export_sweep_telemetry(points, "fig3")
    return points


@pytest.fixture(scope="session")
def fig3_baseline_sweep():
    """turbine_low sweep with the paper's baseline configuration."""
    return run_strong_scaling(
        "turbine_low", LOW_RANKS, n_steps=BENCH_STEPS, config=baseline_config()
    )


@pytest.fixture(scope="session")
def fig8_sweep():
    """turbine_dual strong-scaling sweep (profiled: comm-wait vs ranks)."""
    cfg = optimized_config()
    cfg.profile = True
    points = run_strong_scaling(
        "turbine_dual", DUAL_RANKS, n_steps=BENCH_STEPS, config=cfg
    )
    export_sweep_profiles(points, "fig8")
    return points


@pytest.fixture(scope="session")
def fig9_sweep():
    """Refined single-turbine sweep (one step per point: the mesh is big)."""
    from repro.mesh import make_turbine_refined

    points = []
    from dataclasses import replace

    from repro.harness.scaling import ScalingPoint

    for r in REFINED_RANKS:
        cfg = optimized_config()
        cfg.nranks = r
        cfg.profile = True
        sim = NaluWindSimulation(make_turbine_refined(refine=REFINE), cfg)
        points.append(ScalingPoint(ranks=r, report=sim.run(max(1, BENCH_STEPS // 2))))
    export_sweep_profiles(points, "fig9")
    return points


@pytest.fixture(scope="session")
def tiny_telemetry():
    """RunTelemetry of a one-step turbine_tiny run (telemetry benches)."""
    cfg = optimized_config()
    cfg.nranks = 2
    sim = NaluWindSimulation("turbine_tiny", cfg)
    report = sim.run(1)
    emit_telemetry("telemetry_tiny", report.telemetry)
    return report.telemetry


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
