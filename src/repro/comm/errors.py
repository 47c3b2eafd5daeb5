"""Structured communication errors.

Every failure of the simulated transport layer is raised as a typed
exception carrying machine-readable context (phase label, endpoint
ranks, attempts, the open rounds at a leak) instead of a bare
``RuntimeError`` string: the recovery machinery routes on *what* failed,
and post-mortem reports can show where every undelivered message was
posted.

The hierarchy is intentionally flat — ``CommError`` is the catch-all the
solver layer traps to escalate into the recovery ladder
(:mod:`repro.resilience.policy`); the subclasses are the two ways a
halo round fails: a message's retries ran out, or a round was left
unfinished at a synchronization point.

All classes subclass ``RuntimeError`` so pre-existing callers that
trapped the old bare errors keep working.
"""

from __future__ import annotations

from typing import Any, Sequence


class CommError(RuntimeError):
    """Base class for transport failures of the simulated comm layer.

    Attributes:
        phase: phase label active when the failure was detected.
        src: sending rank (-1 when not applicable).
        dst: receiving rank (-1 when not applicable).
    """

    def __init__(
        self,
        message: str,
        *,
        phase: str = "",
        src: int = -1,
        dst: int = -1,
    ) -> None:
        super().__init__(message)
        self.phase = phase
        self.src = int(src)
        self.dst = int(dst)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation for reports and telemetry."""
        return {
            "message": str(self),
            "type": type(self).__name__,
            "phase": self.phase,
            "src": self.src,
            "dst": self.dst,
        }


class CommRetriesExhaustedError(CommError):
    """The bounded retry protocol gave up on one logical message.

    Attributes:
        attempts: delivery attempts made (including the first).
        last_error: classification of the final failed attempt
            (``"dropped"`` or ``"corrupt"``).
    """

    def __init__(
        self,
        message: str,
        *,
        phase: str = "",
        src: int = -1,
        dst: int = -1,
        attempts: int = 0,
        last_error: str = "",
    ) -> None:
        super().__init__(message, phase=phase, src=src, dst=dst)
        self.attempts = int(attempts)
        self.last_error = last_error

    def to_dict(self) -> dict[str, Any]:
        d = super().to_dict()
        d.update(attempts=self.attempts, last_error=self.last_error)
        return d


class MailboxLeakError(CommError):
    """Messages were still pending at a synchronization point.

    Raised by :meth:`repro.comm.simcomm.SimWorld.assert_no_pending`:
    a posted-but-never-received message at a barrier means a halo round
    was begun and never finished — on real MPI this is a hang or a
    late-delivery correctness bug.

    Attributes:
        pending: ``[{"phase", "count"}, ...]`` one entry per open round
            holding undelivered messages, with the phase it was posted
            under.
    """

    def __init__(
        self,
        message: str,
        *,
        phase: str = "",
        pending: Sequence[dict[str, Any]] = (),
    ) -> None:
        super().__init__(message, phase=phase)
        self.pending = [dict(p) for p in pending]

    def to_dict(self) -> dict[str, Any]:
        d = super().to_dict()
        d["pending"] = [dict(p) for p in self.pending]
        return d
