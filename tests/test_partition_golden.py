"""The multilevel partition of every canonical mesh graph, byte for byte.

``tests/data/partition_golden.json`` holds the sha256 of
``partition_nodes(comp, "parmetis", nranks)`` (as ``int64`` bytes) for
``turbine_tiny`` at 2 and 3 ranks, ``turbine_low`` at 4, 6, 12 and 24 ranks
and ``turbine_dual`` at 12 ranks, computed in a child process with
``OMP_NUM_THREADS=1`` (the initial bisection's dense eigensolver moves with
the BLAS thread count).  The parts decide the rank numbering, and through
it every field, ledger and figure, so a rewrite of the partitioner must
reproduce them exactly.  Regenerate with ``PYTHONPATH=src python
tests/test_partition_golden.py`` only when the parts are meant to change.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "partition_golden.json")
SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
#: workload -> rank counts partitioned.
CASES = {
    "turbine_tiny": (2, 3),
    "turbine_low": (4, 6, 12, 24),
    "turbine_dual": (12,),
}


def record() -> dict:
    import numpy as np

    from repro.comm import SimWorld
    from repro.core.composite import CompositeMesh, partition_nodes
    from repro.mesh import make_workload

    out = {}
    for workload, ranks in CASES.items():
        comp = CompositeMesh(SimWorld(1), make_workload(workload))
        for nranks in ranks:
            parts = partition_nodes(comp, "parmetis", nranks)
            out[f"{workload}@{nranks}"] = hashlib.sha256(
                np.ascontiguousarray(parts, dtype=np.int64).tobytes()
            ).hexdigest()
    return out


def in_child() -> dict:
    """:func:`record` in a fresh single-threaded interpreter."""
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH", "")) if p
        ),
    )
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); "
        "import test_partition_golden as g; "
        "print(json.dumps(g.record()))"
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
    return in_child()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize(
    "case", [f"{w}@{n}" for w, ranks in CASES.items() for n in ranks]
)
def test_parts_match_golden(measured, golden, case):
    assert measured[case] == golden[case]


if __name__ == "__main__":
    doc = in_child()
    with open(GOLDEN, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN}")
