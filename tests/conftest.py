"""Fixtures shared across test modules."""

import gc
import os

import numpy as np
import pytest


def live_children(pid: int) -> list[str]:
    """``"pid state"`` of every process whose parent is ``pid``, zombies
    (exited, not reaped) included."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:  # exited and reaped while we looked
            continue
        if int(fields[1]) == pid:
            out.append(f"{entry} {fields[0]}")
    return out


@pytest.fixture(scope="session", autouse=True)
def no_child_outlives_the_session():
    """Leak guard: once every test is done and every dropped object is
    collected, no child of this process may be alive or unreaped (a
    campaign worker, a subprocess)."""
    yield
    if not os.path.isdir("/proc"):
        return
    gc.collect()
    left = live_children(os.getpid())
    assert not left, f"child processes left at session end: {left}"


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
