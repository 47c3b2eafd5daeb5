"""The simulated wire under seeded fault schedules, pinned bit for bit.

Each schedule of ``tests/goldens.py::SCHEDULES`` installs a
:class:`~repro.resilience.FaultInjector` on the 4-rank ``turbine_tiny``
pressure operator (12 halo messages per round) and runs synchronous and
overlapped matvecs.  ``tests/data/transport_golden.json`` pins what the
fault model and every counting sink saw: the injector's ``fired``
records, every ``comm.*`` counter total, the traffic log's message count,
the ``p2p`` hub events, and either the result bytes or the escalated
error (then also what the purge released and the next clean round).
"""

import pytest

from tests.goldens import SCHEDULES, declared, produce

GOLDEN = "transport_golden.json"


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_transport_matches_golden(records, name):
    assert produce(GOLDEN, records)[name] == declared(GOLDEN)[name]
