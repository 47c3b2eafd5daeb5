"""Fields and modeled ledgers that lifetime bookkeeping must not move.

``tests/data/lifetime_golden.json`` holds, computed in a child process with
``OMP_NUM_THREADS=1``:

* ``fields``: the sha256 of ``velocity``, ``pressure_field``,
  ``scalar_field`` and ``mdot`` after
  - 20 one-Picard steps of ``turbine_tiny`` at 2 ranks, no checkpoints
    (``tiny_r2_steps20``);
  - 2 steps of ``turbine_tiny`` at 3 ranks with the ``low_r4_altpaths``
    overrides (``tiny_r3_altpaths``);
  - 2 steps of ``turbine_low`` at 12 ranks on defaults (``low_r12_default``)
    and at 4 ranks with the ``low_r4_altpaths`` overrides
    (``low_r4_altpaths``);
* ``ledgers``: the sha256 of the ``ops`` and ``traffic`` state of the two
  ``turbine_low`` runs, whose pattern moves every step.

The same 20-step ``turbine_tiny`` run with a checkpoint every 8 steps must
reproduce the checkpoint-free fields: a checkpoint write changes nothing a
run computes.  Regenerate with ``PYTHONPATH=src python
tests/test_lifetime_golden.py`` only when the fields or the ``turbine_low``
ledger are meant to change.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import pytest

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "lifetime_golden.json")
SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
FIELDS = ("velocity", "pressure_field", "scalar_field", "mdot")

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
#: label -> (workload, config, steps, pin the ledger too).
RUNS = {
    "tiny_r2_steps20": (
        "turbine_tiny", {"nranks": 2, "picard_iterations": 1}, 20, False
    ),
    "tiny_r3_altpaths": ("turbine_tiny", {"nranks": 3, **ALTPATHS}, 2, False),
    "low_r12_default": ("turbine_low", {"nranks": 12}, 2, True),
    "low_r4_altpaths": ("turbine_low", {"nranks": 4, **ALTPATHS}, 2, True),
}
#: The cadence-0 run that a checkpointed twin must reproduce.
CHECKPOINTED = ("tiny_r2_steps20", 8)


def _sha_json(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


def ledger_digests(world) -> dict:
    """sha256 of the ``ops`` and ``traffic`` state, rows order-free."""

    def canonical(state: dict) -> dict:
        return {k: sorted(map(repr, rows)) for k, rows in state.items()}

    return {
        "ops": _sha_json(canonical(world.ops.state_dict())),
        "traffic": _sha_json(canonical(world.traffic.state_dict())),
    }


def run(label: str, **extra):
    from repro import NaluWindSimulation, SimulationConfig

    workload, doc, steps, _ledger = RUNS[label]
    sim = NaluWindSimulation(
        workload, SimulationConfig.from_dict({**doc, **extra})
    )
    sim.run(steps)
    return sim


def field_digests(sim) -> dict:
    from repro.campaign import field_digest

    return {name: field_digest(getattr(sim, name)) for name in FIELDS}


def record() -> dict:
    out = {"fields": {}, "ledgers": {}}
    for label, (_w, _doc, _steps, ledger) in RUNS.items():
        sim = run(label)
        out["fields"][label] = field_digests(sim)
        if ledger:
            out["ledgers"][label] = ledger_digests(sim.world)
    return out


def checkpointed_record() -> dict:
    label, every = CHECKPOINTED
    with tempfile.TemporaryDirectory() as ring:
        sim = run(label, checkpoint_every=every, checkpoint_dir=ring)
    return field_digests(sim)


def in_child(function: str) -> dict:
    """``function()`` of this module in a fresh single-threaded
    interpreter."""
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH", "")) if p
        ),
    )
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); "
        "import test_lifetime_golden as g; "
        f"print(json.dumps(g.{function}()))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, os.path.dirname(__file__)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def measured():
    return in_child("record")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("label", sorted(RUNS))
def test_fields_match_golden(measured, golden, label):
    assert measured["fields"][label] == golden["fields"][label]


@pytest.mark.parametrize(
    "label", sorted(k for k, v in RUNS.items() if v[3])
)
def test_moving_pattern_ledger_matches_golden(measured, golden, label):
    assert measured["ledgers"][label] == golden["ledgers"][label]


def test_checkpoint_cadence_leaves_the_fields(golden):
    label, _every = CHECKPOINTED
    assert in_child("checkpointed_record") == golden["fields"][label]


if __name__ == "__main__":
    doc = in_child("record")
    with open(GOLDEN, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN}")
