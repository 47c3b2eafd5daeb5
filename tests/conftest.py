"""Fixtures shared across test modules."""

import gc
import os

import pytest

from tests.goldens import Records, assemble_pressure


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
def records():
    """Every record a golden projects (``tests/goldens.py``), each computed
    once per session."""
    return Records()


@pytest.fixture(scope="session")
def assemble_tiny_pressure():
    """Builder of the assembled pressure-Poisson system of a turbine mesh
    (the tiny one by default) in a uniform stream:
    ``build(nranks, workload="turbine_tiny") -> (world, A, rhs)``."""
    return assemble_pressure
