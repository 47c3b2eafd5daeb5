"""Memory per phase: ``SimWorld.phase_scope`` under ``tracemalloc``.

While tracemalloc traces, every phase record carries ``high_water_bytes``,
the most traced memory one run of the phase held above its entry; with
tracing off the record is wall clock only.  The run telemetry carries the
value and the flat report lists the top phases.
"""

import tracemalloc

import pytest

from repro import NaluWindSimulation, SimulationConfig
from repro.comm import SimWorld
from repro.obs import render_flat_report
from repro.obs.export import MEMORY_TOP

MIB = 2**20

#: ``*/graph`` high-waters of tiny@2 before the packed-key Stage 1 build
#: (measured with the same tracemalloc bracket), in MiB.
GRAPH_BEFORE = {"momentum": 5.7, "pressure": 7.0, "scalar": 5.7}


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def test_untraced_phases_record_wall_clock_only():
    w = SimWorld(1)
    with w.phase_scope("a"):
        _block = bytearray(MIB)
    assert set(w.phase_wall["a"]) == {"total_s", "count"}


def test_a_phase_records_its_high_water_above_entry(traced):
    w = SimWorld(1)
    _live = bytearray(4 * MIB)  # held before entry: not the phase's
    for size in (3, 1):  # the record keeps the largest run
        with w.phase_scope("a"):
            block = bytearray(size * MIB)
            del block
    high = w.phase_wall["a"]["high_water_bytes"]
    assert 3 * MIB <= high < 4 * MIB


def test_a_nested_phase_keeps_the_outer_peak(traced):
    w = SimWorld(1)
    with w.phase_scope("outer"):
        block = bytearray(6 * MIB)
        del block
        with w.phase_scope("inner"):
            block = bytearray(MIB)
            del block
        with w.phase_scope("inner2"):
            block = bytearray(8 * MIB)
            del block
            with w.phase_scope("innermost"):
                pass
    walls = {k: v["high_water_bytes"] / MIB for k, v in w.phase_wall.items()}
    assert 1 <= walls["inner"] < 2
    assert 8 <= walls["inner2"] < 9
    assert 8 <= walls["outer"] < 9  # the later, larger nested peak
    assert walls["innermost"] < 1


def test_graph_phase_high_water_and_report(traced):
    sim = NaluWindSimulation("turbine_tiny", SimulationConfig(nranks=2))
    report = sim.run(2)
    phases = report.telemetry.phases
    for eq, before in GRAPH_BEFORE.items():
        high = phases[f"{eq}/graph"]["high_water_bytes"] / MIB
        assert high < before / 2, (eq, high)
    assert all("high_water_bytes" in ph for ph in phases.values())
    text = render_flat_report(report.telemetry)
    lines = text.splitlines()
    head = lines.index("phase memory high-water above entry       [MiB]")
    listed = [line.split()[0] for line in lines[head + 1 : head + 1 + MEMORY_TOP]]
    top = sorted(phases, key=lambda k: -phases[k]["high_water_bytes"])
    assert listed == top[:MEMORY_TOP]
