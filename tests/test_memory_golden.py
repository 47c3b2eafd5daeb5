"""Fields, ledgers and step snapshots that memory work must not move.

``tests/data/memory_golden.json`` holds, computed in a child process with
``OMP_NUM_THREADS=1``, for each run below: the sha256 of ``velocity``,
``pressure_field``, ``scalar_field`` and ``mdot``; the sha256 of the
``ops`` and ``traffic`` state; and the sha256 of the cumulative per-step
phase snapshots.

* ``tiny_r2_ckpt8``: 20 one-Picard steps of ``turbine_tiny`` at 2 ranks
  with a checkpoint every 8 steps;
* ``tiny_r2_ckpt8_restart``: a cold restart from that run's ring (step
  16), run to step 20;
* ``low_r12_default``: 2 steps of ``turbine_low`` at 12 ranks;
* ``low_r4_altpaths``: 2 steps of ``turbine_low`` at 4 ranks under the
  ``low_r4_altpaths`` benchmark overrides.

A graph, plan or operator freed earlier, or a simulation freed when it is
dropped, changes none of these.  Regenerate with ``PYTHONPATH=src python
-m tests.test_memory_golden`` (from the repo root) only when they are meant
to change.
"""

import json
import os
import subprocess
import sys
import tempfile

import pytest

from tests.test_lifetime_golden import (
    ALTPATHS,
    _sha_json,
    field_digests,
    ledger_digests,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "data", "memory_golden.json")

#: label -> (workload, config, steps).
RUNS = {
    "tiny_r2_ckpt8": (
        "turbine_tiny",
        {"nranks": 2, "picard_iterations": 1, "checkpoint_every": 8},
        20,
    ),
    "low_r12_default": ("turbine_low", {"nranks": 12}, 2),
    "low_r4_altpaths": ("turbine_low", {"nranks": 4, **ALTPATHS}, 2),
}


def digests(sim) -> dict:
    from repro.perf.cost import snapshots_to_json

    return {
        "fields": field_digests(sim),
        "ledgers": ledger_digests(sim.world),
        "snapshots": _sha_json(snapshots_to_json(sim.step_snapshots)),
    }


def record() -> dict:
    from repro import NaluWindSimulation, SimulationConfig

    out = {}
    with tempfile.TemporaryDirectory() as ring:
        for label, (workload, doc, steps) in RUNS.items():
            extra = {"checkpoint_dir": ring} if "checkpoint_every" in doc else {}
            sim = NaluWindSimulation(
                workload, SimulationConfig.from_dict({**doc, **extra})
            )
            sim.run(steps)
            out[label] = digests(sim)
            if extra:
                restarted = NaluWindSimulation(
                    workload,
                    SimulationConfig.from_dict(
                        {**doc, "checkpoint_every": 0, "restart_from": ring}
                    ),
                )
                restarted.run(steps)
                out[f"{label}_restart"] = digests(restarted)
    return out


def in_child() -> dict:
    """:func:`record` in a fresh single-threaded interpreter."""
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(
            p
            for p in (os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH", ""))
            if p
        ),
    )
    code = (
        "import json; import tests.test_memory_golden as g; "
        "print(json.dumps(g.record()))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def measured():
    return in_child()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


LABELS = sorted([*RUNS, "tiny_r2_ckpt8_restart"])


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("part", ["fields", "ledgers", "snapshots"])
def test_run_matches_golden(measured, golden, label, part):
    assert measured[label][part] == golden[label][part]


def test_restart_reproduces_the_uninterrupted_run(golden):
    assert golden["tiny_r2_ckpt8_restart"] == golden["tiny_r2_ckpt8"]


if __name__ == "__main__":
    doc = in_child()
    with open(GOLDEN, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN}")
