"""The position helper: the next step's connectivity on a second core.

``repro.core.position_helper`` forks one helper per ``CompositeMesh``; the
main process takes its reply only when its own blades reached byte-equal
coordinates.  Pinned here: a reply is bitwise what an inline
``update_connectivity`` computes; every kind of miss (and a dead helper)
gives the fields a run without a helper gives; the helper's life ends with
its owner however the owner ends; and a daemonic campaign worker can have
one.  "No helper" is forced by patching the capability check.
"""

import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro import NaluWindSimulation, SimulationConfig
from repro.campaign import Campaign, CampaignSpec, field_digest
from repro.comm import SimWorld
from repro.core import position_helper
from repro.core.composite import CompositeMesh
from repro.mesh import make_workload
from repro.overset import OversetAssembler

pytestmark = pytest.mark.skipif(
    not position_helper.second_core_available(),
    reason="the position helper needs os.fork and two CPUs",
)

FIELDS = ("velocity", "pressure_field", "scalar_field", "mdot")
SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture
def inline_assembles(monkeypatch):
    """Counts ``OversetAssembler.assemble`` calls made in this process (a
    helper forked later counts in its own copy)."""
    calls = []
    real = OversetAssembler.assemble

    def counted(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(OversetAssembler, "assemble", counted)
    return calls


def tiny(**kw):
    doc = {"nranks": 2, "picard_iterations": 1, **kw}
    return NaluWindSimulation("turbine_tiny", SimulationConfig.from_dict(doc))


def digests(sim):
    return {name: field_digest(getattr(sim, name)) for name in FIELDS}


def gone(pid):
    """Whether ``pid`` no longer names a running process (a zombie left
    for another process to reap counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return True
    return state in ("Z", "X")


def reaped(pid):
    """Whether ``pid`` is gone, zombie and all."""
    return not os.path.exists(f"/proc/{pid}")


@pytest.mark.parametrize(
    "name", ["turbine_tiny", "turbine_low", "turbine_dual"]
)
def test_reply_equals_inline_update_bitwise(name, inline_assembles):
    dt = 0.37
    helped = CompositeMesh(SimWorld(2), make_workload(name))
    inline = CompositeMesh(SimWorld(2), make_workload(name))
    for _ in range(3):
        helped.request_next_position(dt)
        inline_assembles.clear()
        helped.system.advance_rotor(dt)
        helped.update_connectivity()
        assert inline_assembles == []  # the reply was taken
        inline.system.advance_rotor(dt)
        inline.update_connectivity()
        got, want = helped.connectivity, inline.connectivity
        for a, b in zip(got.statuses, want.statuses, strict=True):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(got.donor_sets, want.donor_sets, strict=True):
            assert (a.receptor_mesh, a.donor_mesh) == (
                b.receptor_mesh,
                b.donor_mesh,
            )
            for field in ("receptors", "donors", "weights"):
                x, y = getattr(a, field), getattr(b, field)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for entry in ("lsq_edges", "lsq_normal"):
            for x, y in zip(
                getattr(helped.store, entry),
                getattr(inline.store, entry),
                strict=True,
            ):
                assert not x.flags.writeable
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    helped.close()


def reference_run(monkeypatch, steps, dt_change=None, **kw):
    """Fields after ``steps`` steps with no helper; ``dt_change=(k, dt)``
    sets ``dt`` before step ``k``."""
    with monkeypatch.context() as m:
        m.setattr(position_helper, "second_core_available", lambda: False)
        sim = tiny(**kw)
        if dt_change is None:
            sim.run(steps)
        else:
            k, dt = dt_change
            sim.run(k)
            sim.config.dt = dt
            sim.run(steps - k)
        assert sim.comp._helper.pid == 0
        return digests(sim)


def test_a_changed_dt_misses_and_gives_the_helperless_fields(
    monkeypatch, inline_assembles
):
    want = reference_run(monkeypatch, 5, dt_change=(3, 0.025))
    sim = tiny()
    sim.run(2)
    sim.step()  # a bare step requests the next position
    sim.config.dt = 0.025
    inline_assembles.clear()
    sim.step()  # the reply was computed for the old dt
    assert len(inline_assembles) == 1
    inline_assembles.clear()
    sim.step()
    assert inline_assembles == []
    assert digests(sim) == want
    sim.close()


def test_set_state_consumes_the_reply_and_misses(
    monkeypatch, inline_assembles
):
    with monkeypatch.context() as m:
        m.setattr(position_helper, "second_core_available", lambda: False)
        ref = tiny()
        ref.run(1)
        snap = ref.state()
        ref.run(2)
        ref.set_state(*snap)
        ref.run(2)
        want = digests(ref)
    sim = tiny()
    sim.run(1)
    snap = sim.state()
    sim.step()
    sim.step()
    inline_assembles.clear()
    sim.set_state(*snap)  # a reply for step 4's position is outstanding
    sim.step()
    assert len(inline_assembles) == 2  # set_state, then the step: misses
    inline_assembles.clear()
    sim.step()
    assert inline_assembles == []  # in step with the helper again
    assert digests(sim) == want
    sim.close()


def test_a_reply_taken_after_a_rewind_equals_an_inline_assemble(
    inline_assembles,
):
    """After ``set_state`` rewinds past positions the helper has already
    searched, the reply the main process takes is bitwise what an inline
    ``assemble()`` of that position gives: a reply is a function of the
    blade coordinates that were sent."""
    sim = tiny()
    sim.run(2)
    snap = sim.state()
    sim.step()
    sim.step()
    sim.set_state(*snap)
    sim.step()  # set_state consumed the reply: a miss, then a request
    inline_assembles.clear()
    sim.step()
    assert inline_assembles == []  # the reply was taken
    got, want = sim.comp.connectivity, sim.comp._assembler.assemble()
    for a, b in zip(got.statuses, want.statuses, strict=True):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(got.donor_sets, want.donor_sets, strict=True):
        assert (a.receptor_mesh, a.donor_mesh) == (
            b.receptor_mesh,
            b.donor_mesh,
        )
        for field in ("receptors", "donors", "weights"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    sim.close()


def test_a_cold_restart_misses_once_and_is_bitwise(
    monkeypatch, tmp_path, inline_assembles
):
    want = reference_run(
        monkeypatch,
        4,
        checkpoint_every=2,
        checkpoint_dir=str(tmp_path / "reference"),
    )
    ring = str(tmp_path / "ring")
    first = tiny(checkpoint_every=2, checkpoint_dir=ring)
    first.run(3)
    first.close()
    inline_assembles.clear()
    sim = tiny(restart_from=ring)
    assert sim.step_index == 2
    sim.run(4)
    # construction, set_state, the first step's miss; then the one hit.
    assert len(inline_assembles) == 3
    assert digests(sim) == want
    sim.close()


def test_a_killed_helper_means_inline_from_then_on(
    monkeypatch, inline_assembles
):
    want = reference_run(monkeypatch, 5)
    sim = tiny()
    sim.run(1)
    sim.step()  # leaves a request outstanding
    pid = sim.comp._helper.pid
    os.kill(pid, signal.SIGKILL)
    inline_assembles.clear()
    sim.run(3)
    # Every step misses, unless the whole reply was buffered before the
    # kill: then the first one still hits.
    assert len(inline_assembles) in (2, 3)
    assert reaped(pid)
    assert digests(sim) == want


def refuse_fork():
    raise BlockingIOError("fork: resource temporarily unavailable")


@pytest.mark.parametrize("why", ["one core", "fork fails"])
def test_no_helper_means_inline(monkeypatch, inline_assembles, why):
    if why == "one core":
        monkeypatch.setattr(
            position_helper, "second_core_available", lambda: False
        )
    else:
        monkeypatch.setattr(position_helper.os, "fork", refuse_fork)
    sim = tiny()
    sim.run(3)
    assert sim.comp._helper.pid == 0
    assert len(inline_assembles) == 4


def test_run_requests_only_positions_it_takes(monkeypatch, inline_assembles):
    """``run(n)`` asks for the next position on its first n - 1 steps
    only: a 1-step run forks no helper.  A bare ``step()`` always asks."""
    requests = []
    real = CompositeMesh.request_next_position

    def counted(self, dt):
        requests.append(dt)
        real(self, dt)

    monkeypatch.setattr(CompositeMesh, "request_next_position", counted)
    one = tiny()
    one.run(1)
    assert requests == [] and one.comp._helper.pid == 0
    inline_assembles.clear()
    sim = tiny()
    sim.run(4)
    assert len(requests) == 3
    assert len(inline_assembles) == 2  # construction and step 0
    sim.run(2)  # nothing was requested for this run's first step
    assert len(requests) == 4 and len(inline_assembles) == 3
    sim.step()
    assert len(requests) == 5
    sim.close()


def test_a_dropped_simulation_reaps_its_helper():
    sim = tiny()
    sim.step()
    pid = sim.comp._helper.pid
    assert pid > 0 and not reaped(pid)
    del sim
    gc.collect()
    assert reaped(pid)


def test_the_helper_dies_with_its_owner():
    owner = subprocess.Popen(
        [
            sys.executable,
            "-c",
            textwrap.dedent(
                """
                import time
                from repro import NaluWindSimulation, SimulationConfig
                sim = NaluWindSimulation(
                    "turbine_tiny", SimulationConfig(nranks=2))
                sim.step()
                print(sim.comp._helper.pid, flush=True)
                time.sleep(60)
                """
            ),
        ],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        pid = int(owner.stdout.readline())
        assert not gone(pid)
    finally:
        owner.kill()
        owner.wait(timeout=10)
        owner.stdout.close()
    deadline = time.monotonic() + 1.0
    while not gone(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert gone(pid)


def _daemonic_run(conn):
    calls = []
    real = OversetAssembler.assemble

    def counted(self):
        calls.append(1)
        return real(self)

    OversetAssembler.assemble = counted
    sim = tiny()
    sim.run(4)
    conn.send((len(calls), digests(sim)))
    sim.close()


def test_a_daemonic_worker_has_a_helper(tmp_path, monkeypatch):
    want = reference_run(monkeypatch, 4)
    ctx = multiprocessing.get_context("fork")
    here, there = ctx.Pipe()
    worker = ctx.Process(target=_daemonic_run, args=(there,), daemon=True)
    worker.start()
    assert here.poll(120)
    calls, got = here.recv()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert calls == 2  # construction and step 0; steps 1-3 hit
    assert got == want

    spec = CampaignSpec(
        name="helper",
        workload="turbine_tiny",
        steps=4,
        seeds=(0,),
        base={"nranks": 2},
    )
    inline = Campaign(spec, str(tmp_path / "inline"), workers=0)
    forked = Campaign(spec, str(tmp_path / "fork"), workers=1)
    for camp in (inline, forked):
        assert camp.run()["status_counts"]["done"] == 1
    digest = spec.expand()[0].digest()
    assert inline.store.get_bytes(digest) is not None
    assert inline.store.get_bytes(digest) == forked.store.get_bytes(digest)
