"""Fixtures shared across test modules."""

import numpy as np
import pytest


@pytest.fixture(scope="session")
def assemble_tiny_pressure():
    """Builder of the assembled pressure-Poisson system of a turbine mesh
    (the tiny one by default) in a uniform stream:
    ``build(nranks, workload="turbine_tiny") -> (world, A, rhs)``."""
    from repro.comm import SimWorld
    from repro.core import CompositeMesh, SimulationConfig
    from repro.core.operators import boundary_mass_flux, mass_flux
    from repro.core.physics import PressurePoissonSystem
    from repro.mesh import make_workload

    def build(nranks, workload="turbine_tiny"):
        cfg = SimulationConfig(nranks=nranks)
        w = SimWorld(cfg.nranks)
        comp = CompositeMesh(w, make_workload(workload), cfg.partition_method)
        pres = PressurePoissonSystem(comp, cfg)
        u = np.tile([8.0, 0, 0], (comp.n, 1))
        A, rhs = pres.assemble(
            mdot=mass_flux(comp, u, cfg.density),
            pressure_correction_bc=np.zeros(comp.n),
            boundary_flux=boundary_mass_flux(comp, u, cfg.density),
        )
        return w, A, rhs

    return build
