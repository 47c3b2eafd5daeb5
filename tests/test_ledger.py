"""The run's ledgers: what the modeled-clock sinks hold after a run, and
that every sink holds the same events.

``tests/data/ledger_golden.json`` pins, bit for bit, every count both
sinks hold (``tests/goldens.py::ledger_tallies``) after three ``RUNS``
of ``turbine_tiny`` at 3 ranks x 2 steps: the default, the paper cadence
and the alternative paths.  Last moved when a start-up step stopped
ending the graphs and plans (it ends only the preconditioners): step 2
keeps step 1's graph and replays its plan, so every
``*/graph|graph_host`` tally halves, the cold-assembly kernels
(``asm_sort``/``asm_reduce``/``asm_split``/``vec_sort``/``vec_reduce``)
halve in the plan-reusing configs, their value-replay kernels gain step
2's calls, and ``*/global_assembly`` message bytes drop (values only);
``peak_alloc`` and every other phase held.
"""

import pytest

from repro import NaluWindSimulation, SimulationConfig
from repro.comm import SimWorld
from tests.goldens import declared, produce

GOLDEN = "ledger_golden.json"


@pytest.mark.parametrize("name", sorted(declared(GOLDEN)))
def test_ledger_matches_parent_golden(records, name):
    golden = declared(GOLDEN)[name]
    got = produce(GOLDEN, records)[name]
    assert got["kernels"] == golden["kernels"]
    assert got["traffic"] == golden["traffic"]
    assert got["peak_alloc"] == golden["peak_alloc"]


def test_verbs_charge_the_active_phase_like_the_rank_loops_they_replace():
    w, ref = SimWorld(3), SimWorld(3)
    with w.phase_scope("p"):
        w.charge("k", 0.1, 0.3, launches=2)  # scalar: every rank's share
        w.charge("k", [1.0, 2.0], [3.0, 4.0], ranks=[2, 0])  # per rank
        w.charge_alloc(8.0)
        w.charge_alloc([-8.0, 16.0], ranks=[1, 2])
    for r in range(3):
        ref.ops.record("p", r, "k", 0.1, 0.3, 2)
        ref.ops.record_alloc(r, 8.0)
    ref.ops.record("p", 2, "k", 1.0, 3.0)
    ref.ops.record("p", 0, "k", 2.0, 4.0)
    ref.ops.record_alloc(1, -8.0)
    ref.ops.record_alloc(2, 16.0)
    assert w.ops._tallies == ref.ops._tallies
    assert w.ops._kernel_tallies == ref.ops._kernel_tallies
    assert w.ops._peak_alloc_bytes == ref.ops._peak_alloc_bytes
    assert w.ops._alloc_bytes == ref.ops._alloc_bytes


@pytest.mark.parametrize("nranks", [2, 4])
def test_every_sink_sees_every_collective(nranks):
    """Both modeled clocks and the hub count the same collectives, per
    phase: the Gram-Schmidt reductions and the AMG coarse-solve / set-up
    allgathers used to reach the ``TrafficLog`` only."""
    sim = NaluWindSimulation(
        "turbine_tiny", SimulationConfig(nranks=nranks, profile=True)
    )
    hub: dict[str, int] = {}

    def on_exchange(kind, phase, **_kw):
        if kind not in ("p2p", "alltoallv"):
            hub[phase] = hub.get(phase, 0) + 1

    sim.world.hub.subscribe("exchange", on_exchange)
    sim.run(2)
    traffic = sim.world.traffic
    logged = {
        ph: traffic.collective_count(ph)
        for ph in traffic.phases()
        if traffic.collective_count(ph)
    }
    timeline = {
        ph: int(v["collectives"])
        for ph, v in sim.world.profiler.phase_comm_stats().items()
        if v["collectives"]
    }
    assert sum(logged.values()) > 100
    assert timeline == logged
    assert hub == logged

