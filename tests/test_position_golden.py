"""Position-only work, pinned bit for bit.

``tests/data/connectivity_golden.json`` holds, per workload and rotor
position of ``tests/goldens.py::connectivity_record``, the sha256 of the
overset statuses and of every donor set; and the field digests of the
registry's two 3-step ``turbine_tiny`` runs.
"""

import pytest

from tests.goldens import CONNECTIVITY_WORKLOADS, declared, produce

GOLDEN = "connectivity_golden.json"


@pytest.mark.parametrize("name", CONNECTIVITY_WORKLOADS)
def test_connectivity_matches_golden(records, name):
    got = produce(GOLDEN, records)["connectivity"][name]
    assert got == declared(GOLDEN)["connectivity"][name]


@pytest.mark.parametrize("label", sorted(declared(GOLDEN)["fields"]))
def test_fields_match_golden(records, label):
    got = produce(GOLDEN, records)["fields"][label]
    assert got == declared(GOLDEN)["fields"][label]
