"""The run's ledgers: what the modeled-clock sinks hold after a run, and
that every sink holds the same events.

``tests/data/ledger_golden.json`` pins them bit for bit; a PR that moves
counts on purpose regenerates it (``PYTHONPATH=src python
tests/test_ledger.py``) and states old -> new.  Last moved by the PR that
took AMG set-up off the Picard loop: ``paper_cadence`` (one set-up per
solve) is the ``default`` case of before, apart from the four set-up
SpGEMM kernels whose intermediate products now keep the entries that
cancel to 0 (``pressure/precond_setup|agg_ap``, ``agg_rap``, ``rap_ap``,
``rap_rap``).
"""

import json
import os

import pytest

from repro import NaluWindSimulation, SimulationConfig
from repro.comm import SimWorld

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "ledger_golden.json")

#: The ``low_r4_altpaths`` benchmark overrides: every non-default path.
ALTPATHS = {
    "assembly_variant": "general",
    "reuse_assembly_plan": False,
    "partition_method": "rcb",
    "sgs_inner": 1,
    "precond_rebuild_every": 4,
    "amg_refresh": True,
    "momentum_solver": {"overlap": True},
    "scalar_solver": {"overlap": True},
    "pressure_solver": {"tol": 1e-6, "max_iters": 300, "overlap": True},
}
CONFIGS = {
    "default": {},
    "paper_cadence": {"precond_rebuild_every": 1},
    "low_r4_altpaths": ALTPATHS,
}


def ledger_snapshot(overrides):
    """Every count both sinks hold after turbine_tiny @ 3 ranks x 2 steps;
    floats as ``float.hex()`` so the comparison is bit for bit."""
    cfg = SimulationConfig.from_dict({"nranks": 3, **overrides})
    sim = NaluWindSimulation("turbine_tiny", cfg)
    sim.run(2)
    ops, traffic = sim.world.ops, sim.world.traffic
    kernels = {}
    for ph in ops.phases():
        for k in ops.kernels(ph):
            t = ops.kernel_tally(ph, k)
            kernels[f"{ph}|{k}"] = [
                float(t.flops).hex(), float(t.bytes).hex(), t.launches
            ]
    comm = {
        ph: {
            "messages": traffic.message_count(ph),
            "bytes": traffic.message_bytes(ph),
            "max_rank_messages": traffic.max_rank_messages(ph),
            "max_rank_bytes": traffic.max_rank_bytes(ph),
            "collectives": traffic.collective_count(ph),
            "collective_bytes": traffic.collective_bytes(ph),
        }
        for ph in traffic.phases()
    }
    peak = [float(ops.peak_alloc(r)).hex() for r in range(cfg.nranks)]
    return {"kernels": kernels, "traffic": comm, "peak_alloc": peak}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_ledger_matches_parent_golden(name):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[name]
    got = ledger_snapshot(CONFIGS[name])
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


if __name__ == "__main__":
    doc = {name: ledger_snapshot(ov) for name, ov in CONFIGS.items()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
