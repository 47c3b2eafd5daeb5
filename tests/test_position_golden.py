"""Position-only work, pinned bit for bit.

``tests/data/connectivity_golden.json`` holds two records:

* ``connectivity``: per workload (``turbine_tiny``, ``turbine_low``,
  ``turbine_dual``) and per rotor position (after 0, 1 and 2 calls of
  ``advance_rotor(0.37)``), the sha256 of the overset statuses and of every
  donor set's mesh pair, receptors, donors and weights;
* ``fields``: the sha256 of ``velocity``, ``pressure_field``,
  ``scalar_field`` and ``mdot`` after 3 steps of ``turbine_tiny`` at 2
  ranks on defaults, and at 3 ranks with the ``low_r4_altpaths``
  overrides.

Both are computed in a child process with ``OMP_NUM_THREADS=1``: the
default multilevel partition of ``turbine_tiny`` moves with the BLAS thread
count.  Regenerate with ``PYTHONPATH=src python
tests/test_position_golden.py`` only when connectivity or the fields are
meant to change.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

GOLDEN = os.path.join(
    os.path.dirname(__file__), "data", "connectivity_golden.json"
)
SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

CONNECTIVITY_WORKLOADS = ("turbine_tiny", "turbine_low", "turbine_dual")
ROTOR_STEPS = 2
ROTOR_DT = 0.37

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
FIELD_CONFIGS = {
    "tiny_r2_default": {"nranks": 2},
    "tiny_r3_altpaths": {"nranks": 3, **ALTPATHS},
}
FIELD_STEPS = 3


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def connectivity_hash(conn) -> dict:
    """sha256 of the statuses and of every donor set, in assembly order."""
    return {
        "statuses": _sha(*conn.statuses),
        "donor_sets": [
            _sha(
                np.array([ds.receptor_mesh, ds.donor_mesh]),
                ds.receptors,
                ds.donors,
                ds.weights,
            )
            for ds in conn.donor_sets
        ],
    }


def connectivity_record() -> dict:
    from repro.mesh import make_workload
    from repro.overset import OversetAssembler

    out = {}
    for name in CONNECTIVITY_WORKLOADS:
        system = make_workload(name)
        asm = OversetAssembler(system.meshes)
        rows = []
        for i in range(ROTOR_STEPS + 1):
            if i:
                system.advance_rotor(ROTOR_DT)
            rows.append(connectivity_hash(asm.assemble()))
        out[name] = rows
    return out


def fields_record() -> dict:
    from repro import NaluWindSimulation, SimulationConfig
    from repro.campaign import field_digest

    out = {}
    for label, doc in FIELD_CONFIGS.items():
        sim = NaluWindSimulation(
            "turbine_tiny", SimulationConfig.from_dict(doc)
        )
        sim.run(FIELD_STEPS)
        out[label] = {
            name: field_digest(getattr(sim, name))
            for name in ("velocity", "pressure_field", "scalar_field", "mdot")
        }
    return out


def record() -> dict:
    return {"connectivity": connectivity_record(), "fields": fields_record()}


def record_in_child() -> dict:
    """:func:`record` in a fresh single-threaded interpreter."""
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
        "import test_position_golden as g; print(json.dumps(g.record()))"
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
    return record_in_child()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("name", CONNECTIVITY_WORKLOADS)
def test_connectivity_matches_golden(measured, golden, name):
    assert measured["connectivity"][name] == golden["connectivity"][name]


@pytest.mark.parametrize("label", sorted(FIELD_CONFIGS))
def test_fields_match_golden(measured, golden, label):
    assert measured["fields"][label] == golden["fields"][label]


if __name__ == "__main__":
    doc = record_in_child()
    with open(GOLDEN, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN}")
