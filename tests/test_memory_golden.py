"""Fields, ledgers and step snapshots that memory work must not move.

``tests/data/memory_golden.json`` holds the field digests, the ``ops`` /
``traffic`` hashes and the hash of the cumulative per-step phase
snapshots of three runs of ``tests/goldens.py::RUNS`` and of
``tiny_r2_ckpt8``'s cold restart from its ring at step 16.  A graph, plan
or operator freed earlier, or a simulation freed when it is dropped,
changes none of these.
"""

import pytest

from tests.goldens import declared, produce

GOLDEN = "memory_golden.json"


@pytest.mark.parametrize("label", sorted(declared(GOLDEN)))
@pytest.mark.parametrize("part", ["fields", "ledgers", "snapshots"])
def test_run_matches_golden(records, label, part):
    got = produce(GOLDEN, records)[label][part]
    assert got == declared(GOLDEN)[label][part]


def test_restart_reproduces_the_uninterrupted_run(records):
    got = produce(GOLDEN, records)
    assert got["tiny_r2_ckpt8_restart"] == got["tiny_r2_ckpt8"]
    golden = declared(GOLDEN)
    assert golden["tiny_r2_ckpt8_restart"] == golden["tiny_r2_ckpt8"]
