"""Resilience subsystem: guards, recovery policies, faults, checkpoints.

Five modules turn solver failure and lost simulation state from silent
corruption into first-class, recoverable events — and are the only place
a failure is caught, retried, rewound or recorded:

* :mod:`~repro.resilience.guards` — NaN/Inf validation of Krylov
  iterates and solution fields, raising a structured
  :class:`SolverFailure`; :func:`classify_failure` maps transport/I-O
  exceptions onto the same failure taxonomy;
* :mod:`~repro.resilience.policy` — the configurable escalation ladder
  (:class:`RecoveryPolicy`, the :data:`LADDER` table and
  :func:`solve_with_recovery`, which walks it around one solve attempt)
  and the event/summary types;
* :mod:`~repro.resilience.transaction` — :class:`StepTransaction`:
  snapshot -> step body -> field guard -> rewind (memory, then the
  checkpoint ring) over any object with the ``state()`` contract;
* :mod:`~repro.resilience.injection` — seeded deterministic
  :class:`FaultInjector` so recovery is exercised in tests, not trusted;
* :mod:`~repro.resilience.checkpoint` — the durable
  ``repro.checkpoint/1`` format and :class:`CheckpointManager`
  retention ring for bitwise-exact restart.

See ``docs/resilience.md`` for the failure taxonomy and config knobs,
and ``docs/checkpoint_restart.md`` for the checkpoint format and restart
workflow.
"""

from repro.resilience.checkpoint import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointManager,
    CheckpointNotFoundError,
    CheckpointWriteError,
    deserialize_checkpoint,
    read_checkpoint,
    serialize_checkpoint,
)
from repro.resilience.guards import (
    FAILURE_KINDS,
    TRANSIENT_FAILURE_KINDS,
    SolverFailure,
    classify_failure,
    iterate_is_finite,
    operands_are_finite,
    validate_fields,
    validate_iterate,
)
from repro.resilience.injection import (
    FAULT_KINDS,
    WORKER_FAULT_KINDS,
    WORKER_FAULT_POINTS,
    FaultInjector,
    FaultSpec,
)
from repro.resilience.policy import (
    LADDER_ACTIONS,
    RECOVERY_ACTIONS,
    RecoveryEvent,
    RecoveryPolicy,
    summarize_events,
)
from repro.resilience.transaction import StepTransaction

__all__ = [
    "FAILURE_KINDS",
    "FAULT_KINDS",
    "LADDER_ACTIONS",
    "RECOVERY_ACTIONS",
    "TRANSIENT_FAILURE_KINDS",
    "WORKER_FAULT_KINDS",
    "WORKER_FAULT_POINTS",
    "CheckpointCorruptionError",
    "CheckpointError",
    "CheckpointManager",
    "CheckpointNotFoundError",
    "CheckpointWriteError",
    "FaultInjector",
    "FaultSpec",
    "RecoveryEvent",
    "RecoveryPolicy",
    "SolverFailure",
    "StepTransaction",
    "classify_failure",
    "deserialize_checkpoint",
    "iterate_is_finite",
    "operands_are_finite",
    "read_checkpoint",
    "serialize_checkpoint",
    "summarize_events",
    "validate_fields",
    "validate_iterate",
]
