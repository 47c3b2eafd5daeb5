"""The simulated wire under seeded fault schedules, pinned bit for bit.

Each schedule installs a :class:`~repro.resilience.FaultInjector` on the
4-rank ``turbine_tiny`` pressure operator (12 halo messages per round) and
runs synchronous and overlapped matvecs.  ``tests/data/transport_golden.json``
pins what the fault model and every counting sink saw: the injector's
``fired`` records, every ``comm.*`` counter total, the traffic log's
message count, the ``p2p`` hub events, and either the result bytes or the
escalated error (then also what the purge released and the next clean
round).  Regenerate with ``PYTHONPATH=src python
tests/test_transport_golden.py`` only when the transport is meant to
change.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.comm import CommRetriesExhaustedError, SimWorld
from repro.resilience import FaultInjector, FaultSpec

GOLDEN = os.path.join(
    os.path.dirname(__file__), "data", "transport_golden.json"
)

# Posting order of the pattern is src-major over all 12 ordered pairs,
# receive order dst-major: posting index i is received at position
# [3, 6, 9, 0, 7, 10, 1, 4, 11, 2, 5, 8][i].  ``at`` counts the
# opportunities a spec sees (one per post or re-post, minus those an
# earlier spec fired on); the first round posts opportunities 0-11.
SCHEDULES = {
    "drop": ((FaultSpec("message_drop", at=3),), 2, (False, True, False)),
    "corrupt": ((FaultSpec("message_corrupt", at=13),), 2, (False, True)),
    "duplicate": ((FaultSpec("message_duplicate", at=5),), 2, (True, False)),
    "corrupt_entries3": (
        (FaultSpec("message_corrupt", at=2, entries=3),), 2, (False, True),
    ),
    "drop_hits_repost": (
        (
            FaultSpec("message_corrupt", at=1),
            FaultSpec("message_drop", at=12),
        ),
        2,
        (True, False),
    ),
    "drop_and_corrupt_one_round": (
        (FaultSpec("message_drop", at=2), FaultSpec("message_corrupt", at=5)),
        2,
        (False, True),
    ),
    "exhaust_r0": (
        (
            FaultSpec("message_drop", at=7),
            FaultSpec("message_duplicate", at=3),
            FaultSpec("message_duplicate", at=9),
        ),
        0,
        (False,),
    ),
    "exhaust_r2": (
        (
            FaultSpec("message_drop", at=3),
            FaultSpec("message_drop", at=11),
            FaultSpec("message_drop", at=11),
            FaultSpec("message_corrupt", at=7),
        ),
        2,
        (True,),
    ),
}


def pressure_operator_rcb(nranks=4):
    """The ``assemble_tiny_pressure`` operator, partitioned by RCB: the
    multilevel partition moves with the BLAS thread count, RCB does not,
    so the pinned bytes hold on any machine."""
    from repro.core import CompositeMesh, SimulationConfig
    from repro.core.operators import boundary_mass_flux, mass_flux
    from repro.core.physics import PressurePoissonSystem
    from repro.mesh import make_workload

    cfg = SimulationConfig(nranks=nranks, partition_method="rcb")
    w = SimWorld(cfg.nranks)
    comp = CompositeMesh(w, make_workload("turbine_tiny"), "rcb")
    u = np.tile([8.0, 0, 0], (comp.n, 1))
    A, rhs = PressurePoissonSystem(comp, cfg).assemble(
        mdot=mass_flux(comp, u, cfg.density),
        pressure_correction_bc=np.zeros(comp.n),
        boundary_flux=boundary_mass_flux(comp, u, cfg.density),
    )
    return w, A, rhs


def comm_counters(world):
    """Total of every ``comm.*`` counter, summed over labels."""
    totals = {}
    for key, value in world.metrics.as_dict()["counters"].items():
        name = key.split("{")[0]
        if name.startswith("comm."):
            totals[name] = totals.get(name, 0.0) + value
    return totals


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def snapshot(world, A, rhs, name):
    """What one schedule leaves on every sink, as deltas on ``world``."""
    specs, retries, modes = SCHEDULES[name]
    x = A.new_vector(rhs.data.copy())
    world.purge_pending()  # fresh channel sequence numbers
    world.comm_max_retries = retries
    before = comm_counters(world)
    sent = world.traffic.message_count()
    events = []
    off = world.hub.subscribe(
        "exchange", lambda kind, **_kw: events.append(kind)
    )
    injector = world.fault_injector = FaultInjector(
        specs, seed=sum(map(ord, name))
    )
    out = {}
    try:
        with world.phase_scope(f"golden/{name}"):
            results = [A.matvec(x, overlap=o).data.copy() for o in modes]
        out["result_sha256"] = digest(results)
    except CommRetriesExhaustedError as err:
        out["error"] = {
            "src": err.src,
            "dst": err.dst,
            "attempts": err.attempts,
            "last_error": err.last_error,
        }
        out["purged"] = world.purge_pending("golden")
        world.fault_injector = None
        out["after_purge_sha256"] = digest([A.matvec(x).data])
    finally:
        world.fault_injector = None
        off()
    out["fired"] = injector.fired
    after = comm_counters(world)
    out["counters"] = {
        k: after[k] - before.get(k, 0.0)
        for k in sorted(after)
        if after[k] != before.get(k, 0.0)
    }
    out["messages"] = world.traffic.message_count() - sent
    out["p2p_events"] = events.count("p2p")
    world.comm_max_retries = 2
    world.purge_pending()
    return out


@pytest.fixture(scope="module")
def pressure_operator():
    return pressure_operator_rcb()


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_transport_matches_golden(pressure_operator, name):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert snapshot(*pressure_operator, name) == golden[name]


if __name__ == "__main__":
    operator = pressure_operator_rcb()
    doc = {name: snapshot(*operator, name) for name in sorted(SCHEDULES)}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
