"""Fields and modeled ledgers that lifetime bookkeeping must not move.

``tests/data/lifetime_golden.json`` holds the field digests of four runs
of ``tests/goldens.py::RUNS`` and the ``ops`` / ``traffic`` hashes of the
two ``turbine_low`` runs, whose pattern moves every step.  The 20-step
run with a checkpoint every 8 steps must reproduce the checkpoint-free
fields: a checkpoint write changes nothing a run computes.
"""

import pytest

from tests.goldens import declared, produce

GOLDEN = "lifetime_golden.json"


@pytest.mark.parametrize("label", sorted(declared(GOLDEN)["fields"]))
def test_fields_match_golden(records, label):
    got = produce(GOLDEN, records)["fields"][label]
    assert got == declared(GOLDEN)["fields"][label]


@pytest.mark.parametrize("label", sorted(declared(GOLDEN)["ledgers"]))
def test_moving_pattern_ledger_matches_golden(records, label):
    got = produce(GOLDEN, records)["ledgers"][label]
    assert got == declared(GOLDEN)["ledgers"][label]


def test_checkpoint_cadence_leaves_the_fields(records):
    runs = records["runs"]
    assert runs["tiny_r2_ckpt8"]["fields"] == runs["tiny_r2_steps20"]["fields"]
    assert (
        runs["tiny_r2_ckpt8"]["fields"]
        == declared(GOLDEN)["fields"]["tiny_r2_steps20"]
    )
