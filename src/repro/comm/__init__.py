"""Simulated distributed-memory communication substrate.

The paper runs Nalu-Wind/hypre over MPI on thousands of GPUs.  This package
provides an in-process SPMD rank simulator: every rank's data lives in
rank-indexed containers, exchanges move real NumPy arrays between them, and
every point-to-point message and collective is recorded in a
:class:`~repro.comm.traffic.TrafficLog` so the performance model
(:mod:`repro.perf`) can convert the observed communication structure into
simulated wall time on a modeled machine.

A halo round (:mod:`repro.comm.exchange`) is delivered whole: one packed
send buffer, one checksum per message stamped and verified in one pass, and
a per-message re-request only for what was dropped or corrupted.  Transport
failures raise the structured exceptions of :mod:`repro.comm.errors` so the
resilience layer (:mod:`repro.resilience`) can classify and recover them.
"""

from repro.comm.errors import (
    CommError,
    CommRetriesExhaustedError,
    MailboxLeakError,
)
from repro.comm.traffic import TrafficLog
from repro.comm.simcomm import SimWorld
from repro.comm.exchange import (
    ExchangePattern,
    build_exchange_pattern,
    exchange_halo,
    overlapped_halo,
)

__all__ = [
    "CommError",
    "CommRetriesExhaustedError",
    "ExchangePattern",
    "MailboxLeakError",
    "SimWorld",
    "TrafficLog",
    "build_exchange_pattern",
    "exchange_halo",
    "overlapped_halo",
]
