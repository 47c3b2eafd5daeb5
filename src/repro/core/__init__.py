"""The paper's primary contribution: the exascale-prep CFD pipeline."""

from repro.core.composite import CompositeMesh, GlobalDonorSet
from repro.core.config import SimulationConfig, SolverConfig
from repro.core.equation_system import PHASES, EquationSystem, SolveRecord
from repro.core.physics import (
    MomentumSystem,
    PressurePoissonSystem,
    ScalarTransportSystem,
)
from repro.core.postprocess import (
    q_criterion,
    strain_rate_magnitude,
    velocity_gradient,
    vorticity,
    vorticity_magnitude,
    wake_deficit_profile,
)
from repro.core.simulation import NaluWindSimulation, SimulationReport

__all__ = [
    "CompositeMesh",
    "EquationSystem",
    "GlobalDonorSet",
    "MomentumSystem",
    "NaluWindSimulation",
    "PHASES",
    "PressurePoissonSystem",
    "ScalarTransportSystem",
    "SimulationConfig",
    "SimulationReport",
    "SolveRecord",
    "SolverConfig",
    "q_criterion",
    "strain_rate_magnitude",
    "velocity_gradient",
    "vorticity",
    "vorticity_magnitude",
    "wake_deficit_profile",
]
