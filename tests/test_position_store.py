"""The position store: work that depends only on where the meshes are.

``CompositeMesh.store`` (a :class:`~repro.core.composite.PositionStore`)
holds the fringe and hole ids, every equation's constraint rows and the
edge geometry the operators read; ``update_connectivity`` is its one reset
point, and each position is searched once, in the process that steps.
Also here: a simulation owns the mesh object it is handed.
"""

import numpy as np
import pytest

from repro import NaluWindSimulation, SimulationConfig
from repro.mesh import make_workload
from repro.overset import NodeStatus, OversetAssembler

STORE_ARRAYS = ("fringe", "hole", "face_vectors")
STORE_PAIRS = ("lsq_edges", "lsq_normal")


def fresh_constraint_rows(eq):
    comp = eq.comp
    return np.unique(
        np.concatenate(
            [
                eq.dirichlet,
                np.flatnonzero(comp.statuses == NodeStatus.FRINGE),
                np.flatnonzero(comp.statuses == NodeStatus.HOLE),
            ]
        )
    )


@pytest.fixture(scope="module")
def tiny_sim():
    return NaluWindSimulation(
        "turbine_tiny", SimulationConfig(nranks=2, picard_iterations=1)
    )


def store_entries(sim):
    store = sim.comp.store
    out = [getattr(store, name) for name in STORE_ARRAYS]
    for name in STORE_PAIRS:
        out.extend(getattr(store, name))
    out.extend(eq.constraint_rows() for eq in sim.systems)
    return out


def test_store_arrays_are_read_only_and_kept_within_a_position(tiny_sim):
    first = store_entries(tiny_sim)
    again = store_entries(tiny_sim)
    for a, b in zip(first, again, strict=True):
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    for eq in tiny_sim.systems:
        assert not eq.dirichlet.flags.writeable
        assert np.array_equal(eq.constraint_rows(), fresh_constraint_rows(eq))


def test_update_connectivity_rebuilds_the_store(tiny_sim):
    comp = tiny_sim.comp
    store = comp.store
    before = store_entries(tiny_sim)
    comp.update_connectivity()
    assert comp.store is not store
    after = store_entries(tiny_sim)
    for a, b in zip(before, after, strict=True):
        assert a is not b
        assert np.array_equal(a, b)  # the same position: equal values


def test_set_state_to_an_earlier_step_recomputes_constraint_rows():
    """``turbine_low`` moves its constraint rows every step, so a store
    kept across the rewind would hand back the later step's rows."""
    sim = NaluWindSimulation(
        "turbine_low", SimulationConfig(nranks=2, picard_iterations=1)
    )
    snapshot = sim.state()
    start = [eq.constraint_rows().copy() for eq in sim.systems]
    sim.run(1)
    moved = [eq.constraint_rows() for eq in sim.systems]
    assert not all(
        np.array_equal(a, b) for a, b in zip(start, moved, strict=True)
    )
    sim.set_state(*snapshot)
    for eq, rows in zip(sim.systems, start, strict=True):
        assert np.array_equal(eq.constraint_rows(), fresh_constraint_rows(eq))
        assert np.array_equal(eq.constraint_rows(), rows)


def test_background_index_is_built_once_across_steps():
    sim = NaluWindSimulation(
        "turbine_tiny", SimulationConfig(nranks=2, picard_iterations=1)
    )
    asm = sim.comp._assembler
    index = asm._background
    shapes = [shape.cell_search[0] for shape in asm._shapes.values()]
    sim.run(2)
    assert asm._background is index
    assert [shape.cell_search[0] for shape in asm._shapes.values()] == shapes
    # One shape serves the three blades.
    assert len({id(tree) for tree in shapes}) == 1


def test_one_donor_search_per_position(monkeypatch):
    """Construction, each step and each ``set_state`` search their own
    position once, here: no search is made ahead or elsewhere."""
    calls = []
    real = OversetAssembler.assemble

    def counted(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(OversetAssembler, "assemble", counted)
    sim = NaluWindSimulation("turbine_tiny", SimulationConfig(nranks=2))
    assert len(calls) == 1
    snapshot = sim.state()
    sim.run(3)
    assert len(calls) == 1 + 3
    sim.set_state(*snapshot)
    assert len(calls) == 1 + 3 + 1


def test_a_simulation_owns_its_mesh():
    """The same mesh object, run twice, gives bitwise-equal fields: the
    first run does not rotate the blades the second one is handed."""
    system = make_workload("turbine_tiny")
    coords = [m.coords.copy() for m in system.meshes]
    fields = []
    for _run in range(2):
        sim = NaluWindSimulation(
            system, SimulationConfig(nranks=2, picard_iterations=1)
        )
        sim.run(2)
        fields.append(
            [sim.velocity, sim.pressure_field, sim.scalar_field, sim.mdot]
        )
    for a, b in zip(*fields, strict=True):
        assert np.array_equal(a, b)
    for m, c in zip(system.meshes, coords, strict=True):
        assert np.array_equal(m.coords, c)
