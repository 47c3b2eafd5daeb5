"""Simulated distributed-memory communication substrate.

The paper runs Nalu-Wind/hypre over MPI on thousands of GPUs.  This package
provides an in-process SPMD rank simulator: every rank's data lives in
rank-indexed containers, exchanges move real NumPy arrays between them, and
every point-to-point message and collective is recorded in a
:class:`~repro.comm.traffic.TrafficLog` so the performance model
(:mod:`repro.perf`) can convert the observed communication structure into
simulated wall time on a modeled machine.

Point-to-point messages travel in checksummed, sequence-numbered
:class:`~repro.comm.simcomm.MessageEnvelope` wrappers; transport failures
raise the structured exceptions of :mod:`repro.comm.errors` so the
resilience layer (:mod:`repro.resilience`) can classify and recover them.
"""

from repro.comm.errors import (
    CommCorruptionError,
    CommDeadlockError,
    CommError,
    CommRetriesExhaustedError,
    MailboxLeakError,
)
from repro.comm.traffic import TrafficLog
from repro.comm.simcomm import (
    MessageEnvelope,
    SimComm,
    SimWorld,
    payload_checksum,
)
from repro.comm.exchange import (
    ExchangePattern,
    build_exchange_pattern,
    exchange_halo,
    overlapped_halo,
)

__all__ = [
    "CommCorruptionError",
    "CommDeadlockError",
    "CommError",
    "CommRetriesExhaustedError",
    "ExchangePattern",
    "MailboxLeakError",
    "MessageEnvelope",
    "SimComm",
    "SimWorld",
    "TrafficLog",
    "build_exchange_pattern",
    "exchange_halo",
    "overlapped_halo",
    "payload_checksum",
]
