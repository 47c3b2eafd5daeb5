"""The multilevel partition of every canonical mesh graph, byte for byte.

``tests/data/partition_golden.json`` holds the sha256 of
``partition_nodes(comp, "parmetis", nranks)`` for each case of
``tests/goldens.py::PARTITIONS``, computed in-process: the parts do not
depend on the BLAS thread count (``tests/test_partition_stability.py``).
The parts decide the rank numbering, and through it every field, ledger
and figure, so a rewrite of the partitioner must reproduce them exactly.
"""

import pytest

from tests.goldens import PARTITIONS, declared, produce

GOLDEN = "partition_golden.json"


@pytest.mark.parametrize(
    "case", [f"{w}@{n}" for w, ranks in PARTITIONS.items() for n in ranks]
)
def test_parts_match_golden(records, case):
    assert produce(GOLDEN, records)[case] == declared(GOLDEN)[case]
