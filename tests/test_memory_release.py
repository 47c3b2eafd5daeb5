"""A dropped simulation is freed by reference counting.

Nothing inside a :class:`~repro.core.simulation.NaluWindSimulation` points
back at its owner: the step transaction holds the simulation weakly, hub
observers hold only the lists they append to, and the position store
holds its mesh weakly and keys constraint rows by equation name.  So with
the cyclic collector off, ``del sim`` frees the world, the composite mesh
and every equation system at once, rather than at some later collection.
A sweep that builds one simulation after another never holds two, and an
equation never holds two preconditioners.
"""

import gc
import tracemalloc
import weakref

import pytest

from repro import NaluWindSimulation, SimulationConfig
from repro.resilience.injection import FaultSpec
from tests.goldens import ALTPATHS


@pytest.fixture
def no_gc():
    """The cyclic collector off for the test, back on after it."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def run_and_drop(config, steps, check=None):
    """Build and step a simulation, drop its only reference: every part
    must be dead."""
    sim = NaluWindSimulation("turbine_tiny", config)
    sim.run(steps)
    if check is not None:
        check(sim)
    refs = {
        "simulation": weakref.ref(sim),
        "world": weakref.ref(sim.world),
        "composite mesh": weakref.ref(sim.comp),
        **{eq.name: weakref.ref(eq) for eq in sim.systems},
    }
    del sim
    alive = [name for name, ref in refs.items() if ref() is not None]
    assert not alive, f"alive after del: {alive}"


CONFIGS = {
    "default": {"nranks": 2},
    "profile": {"nranks": 2, "profile": True},
    "faults": {
        "nranks": 2,
        "faults": (
            FaultSpec(kind="matrix_corrupt", at=1, equation="pressure"),
            FaultSpec(kind="solver_stall", at=2, equation="momentum"),
        ),
    },
    "altpaths": {"nranks": 3, **ALTPATHS},
}


@pytest.fixture
def lifetimes(monkeypatch):
    """Watch every AMG hierarchy and SGS2 smoother an equation builds.

    Returns ``(built, alive)``: per equation the number built, and the
    equation of each build that found its previous one still reachable.
    With the collector off, an outgoing preconditioner (and, through a
    hierarchy's level 0, its operator) must be freed before its successor
    is built, so the host never holds two.
    """
    from repro.core import physics

    last: dict[str, weakref.ref] = {}
    built: dict[str, int] = {}
    alive: list[str] = []

    def watch(build, operand):
        def wrapper(*args, **kwargs):
            name = args[operand].name
            if name in last and last[name]() is not None:
                alive.append(name)
            obj = build(*args, **kwargs)
            last[name] = weakref.ref(obj)
            built[name] = built.get(name, 0) + 1
            return obj

        return wrapper

    monkeypatch.setattr(
        physics, "AMGHierarchy", watch(physics.AMGHierarchy, 0)
    )
    monkeypatch.setattr(
        physics, "make_smoother", watch(physics.make_smoother, 1)
    )
    return built, alive


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_dropped_simulation_is_freed(no_gc, lifetimes, label):
    doc = dict(CONFIGS[label])
    faults = doc.pop("faults", ())
    cfg = SimulationConfig.from_dict(doc)
    cfg.faults = faults

    def recovered(sim):
        assert sim.recovery_events

    run_and_drop(cfg, 3, recovered if faults else None)
    built, alive = lifetimes
    assert built["pressure"] >= 3 and built["momentum"] >= 3, built
    assert not alive, f"previous preconditioner alive at a build: {alive}"


def test_checkpointed_and_restarted_simulations_are_freed(
    no_gc, lifetimes, tmp_path
):
    ring = str(tmp_path / "ring")
    cfg = {"nranks": 2, "checkpoint_dir": ring}
    run_and_drop(SimulationConfig.from_dict({**cfg, "checkpoint_every": 2}), 4)

    def resumed(sim):
        assert sim.step_index == 5

    run_and_drop(
        SimulationConfig.from_dict({**cfg, "restart_from": ring}), 5, resumed
    )
    built, alive = lifetimes
    assert not alive, f"previous preconditioner alive at a build: {alive}"


def test_simulations_in_a_row_keep_live_bytes_flat(no_gc):
    """Each dropped simulation is gone before the next is built: the
    live bytes after each of three build-step-drop rounds stay flat."""
    tracemalloc.start()
    try:
        live = []
        for _ in range(3):
            sim = NaluWindSimulation("turbine_tiny", SimulationConfig(nranks=2))
            sim.run(2)
            del sim
            live.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert live[2] - live[0] < 2**20, [b / 2**20 for b in live]
