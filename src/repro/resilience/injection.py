"""Seeded, deterministic fault injection for resilience testing.

Recovery machinery that is never exercised is machinery that does not
work.  The :class:`FaultInjector` hooks into the simulated world and
corrupts it on purpose, at configured points, so every rung of the
escalation ladder is driven end-to-end in tests instead of trusted on
faith:

* ``exchange_nan`` — poison one payload of the Nth ``alltoallv``
  exchange with a NaN (a flaky NIC / bad DMA analogue);
* ``matrix_corrupt`` — overwrite assembled operator values on one rank
  (bit-flip / soft-error analogue), either with NaN or a large scale;
* ``solver_stall`` — force the Nth Krylov solve of an equation to report
  non-convergence (preconditioner-gone-stale analogue);
* ``message_drop`` — lose the Nth point-to-point message on the wire
  (nothing arrives; the receiver re-requests it);
* ``message_corrupt`` — perturb the Nth point-to-point payload in
  flight (the message's checksum catches it on receive);
* ``message_duplicate`` — deliver the Nth point-to-point message twice
  (the receiver discards the extra copy);
* ``io_fail`` — fail checkpoint/result-store I/O operations in a window
  of ``entries`` consecutive attempts starting at the Nth (a flaky
  parallel-filesystem analogue; the writer retries);
* ``worker_crash`` — hard-kill a campaign worker process
  (``os._exit``) at a configured execution ``point`` of the ``at``-th
  attempt of a job (a node-death / OOM-kill analogue — the campaign
  supervisor must detect the dead worker and requeue the job);
* ``worker_hang`` — stall a campaign worker at the configured point
  without exiting (a hung MPI collective / filesystem-stall analogue —
  only heartbeat-based lease expiry can catch it).

The process-level kinds (``worker_crash``/``worker_hang``) are matched
by the *campaign supervisor* at dispatch time, keyed on
``(job, attempt)`` instead of a global opportunity counter, so their
firing schedule — and every retry/requeue counter downstream of it — is
deterministic under any worker count and scheduling interleaving.

All randomness flows from one seeded generator and opportunities are
counted deterministically, so a faulted run replays bit-identically
under the same seed — which is what lets tests assert the exact recovery
path taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.serialize import Config

#: Supported fault kinds.
FAULT_KINDS = (
    "exchange_nan",
    "matrix_corrupt",
    "solver_stall",
    "message_drop",
    "message_corrupt",
    "message_duplicate",
    "io_fail",
    "worker_crash",
    "worker_hang",
)

#: Process-level kinds matched by the campaign supervisor at dispatch.
WORKER_FAULT_KINDS = ("worker_crash", "worker_hang")

#: Worker execution boundaries a process fault can fire at ("" = spawn).
WORKER_FAULT_POINTS = ("", "spawn", "lease", "run", "ckpt", "store")

#: How ``matrix_corrupt`` damages the entries it picks.
FAULT_MODES = ("nan", "scale")


@dataclass(frozen=True)
class FaultSpec(Config):
    """One scheduled fault.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        at: fire at the Nth (0-based) opportunity of this kind — the Nth
            ``alltoallv`` call, the Nth matching assembly, the Nth
            matching solve, the Nth point-to-point post, or the Nth
            checkpoint I/O operation.
        equation: restrict ``matrix_corrupt``/``solver_stall`` to one
            equation system (None = any).
        mode: ``matrix_corrupt`` only — ``"nan"`` poisons entries,
            ``"scale"`` multiplies them by ``magnitude``.
        magnitude: scale factor for ``mode="scale"``.
        entries: number of values to corrupt per firing; for ``io_fail``,
            the number of *consecutive* I/O attempts (starting at
            ``at``) that fail — a window, so the writer's retry loop is
            actually exercised.
        point: ``worker_crash``/``worker_hang`` only — the execution
            boundary the fault fires at (:data:`WORKER_FAULT_POINTS`):
            ``"spawn"`` (default, before the job lease), ``"lease"``
            (after leasing, before the simulation), ``"run"``
            (mid-solve, on the first durable checkpoint event),
            ``"ckpt"`` (mid-checkpoint-write, between the tmp write and
            the atomic replace), ``"store"`` (after the run, before the
            outcome document is persisted).
        job: restrict ``worker_*``/``io_fail`` to one job — a
            ``JobSpec.job_id``/digest prefix (matched against the
            dispatch's job id, or the I/O path for ``io_fail``).  Empty
            matches any.  For ``worker_*``, ``at`` is the 0-based
            *attempt index* of the matching job, not a global
            opportunity count — this is what keeps chaos schedules
            deterministic under concurrent dispatch.
    """

    kind: str = field(metadata={"choices": FAULT_KINDS})
    at: int = field(default=0, metadata={"ge": 0})
    equation: str | None = None
    mode: str = field(default="nan", metadata={"choices": FAULT_MODES})
    magnitude: float = 1e8
    entries: int = field(default=1, metadata={"ge": 1})
    point: str = field(default="", metadata={"choices": WORKER_FAULT_POINTS})
    job: str = ""

    def validate(self) -> None:
        """Raise on inconsistent settings."""
        super().validate()
        if self.point and self.kind not in WORKER_FAULT_KINDS:
            raise ValueError(
                f"point={self.point!r} only applies to {WORKER_FAULT_KINDS}"
            )


@dataclass
class _SpecState:
    """Per-spec opportunity bookkeeping."""

    seen: int = 0
    fired: bool = False


class FaultInjector:
    """Deterministic fault scheduler hooked into ``SimWorld``.

    Args:
        specs: the faults to schedule.
        seed: generator seed; the same seed and event stream reproduce
            the same corruptions exactly.

    Attributes:
        fired: record of every fault actually injected
            (``{"kind", "phase", ...}`` dicts, in firing order).
    """

    def __init__(
        self, specs: tuple[FaultSpec, ...] | list[FaultSpec] = (), seed: int = 0
    ) -> None:
        self.specs = tuple(specs)
        for s in self.specs:
            s.validate()
        self.rng = np.random.default_rng(seed)
        self._state = [_SpecState() for _ in self.specs]
        self.fired: list[dict[str, Any]] = []

    def exhausted(self) -> bool:
        """True when every scheduled fault has fired."""
        return all(st.fired for st in self._state)

    def state_dict(self) -> dict[str, Any]:
        """JSON-ready opportunity/RNG state for checkpointing.

        A cold restart restores this so the restarted run sees the same
        remaining fault schedule (and RNG stream) the interrupted run
        would have — faults that already fired stay fired.
        """
        return {
            "seen": [st.seen for st in self._state],
            "fired_flags": [st.fired for st in self._state],
            "rng_state": self.rng.bit_generator.state,
            "fired": [dict(f) for f in self.fired],
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot (specs must match)."""
        if len(state["seen"]) != len(self._state):
            raise ValueError(
                f"fault-injector state has {len(state['seen'])} specs, "
                f"injector has {len(self._state)}"
            )
        for st, seen, fired in zip(
            self._state, state["seen"], state["fired_flags"]
        ):
            st.seen = int(seen)
            st.fired = bool(fired)
        self.rng.bit_generator.state = state["rng_state"]
        self.fired = [dict(f) for f in state["fired"]]

    def _match(self, kind: str, equation: str | None = None) -> FaultSpec | None:
        """Count one opportunity; return the spec due to fire, if any."""
        for spec, st in zip(self.specs, self._state):
            if spec.kind != kind or st.fired:
                continue
            if spec.equation is not None and spec.equation != equation:
                continue
            st.seen += 1
            if st.seen - 1 == spec.at:
                st.fired = True
                return spec
        return None

    # -- hooks ---------------------------------------------------------------

    def on_alltoallv(self, recv: list[list[Any]], phase: str = "") -> None:
        """Maybe NaN-corrupt one payload of an ``alltoallv`` result.

        Payloads are replaced by corrupted *copies*: the originals are
        often views into sender-side staging buffers, and a real network
        fault corrupts the wire, not the sender's memory.
        """
        spec = self._match("exchange_nan")
        if spec is None:
            return
        candidates = [
            (dst, i)
            for dst, payloads in enumerate(recv)
            for i, p in enumerate(payloads)
            if self._value_array(p) is not None
        ]
        if not candidates:
            return
        dst, i = candidates[int(self.rng.integers(len(candidates)))]
        values = self._value_array(recv[dst][i]).copy()
        idx = self.rng.integers(values.size, size=min(spec.entries, values.size))
        values[idx] = np.nan
        recv[dst][i] = self._replace_values(recv[dst][i], values)
        self.fired.append(
            {
                "kind": "exchange_nan",
                "phase": phase,
                "dst": int(dst),
                "entries": int(idx.size),
            }
        )

    def on_matrix(self, A: Any, equation: str, phase: str = "") -> bool:
        """Maybe corrupt one rank's assembled operator values.

        Goes through ``ParCSRMatrix.update_rank_values`` so the global
        CSR and the rank's diag/offd blocks stay consistent (the
        corruption is in the *values*, not the storage layout).
        """
        spec = self._match("matrix_corrupt", equation)
        if spec is None:
            return False
        rank = int(self.rng.integers(A.world.size))
        s = A.A.indptr[A.row_offsets[rank]]
        e = A.A.indptr[A.row_offsets[rank + 1]]
        if e <= s:
            return False
        values = A.A.data[s:e].copy()
        idx = self.rng.integers(values.size, size=min(spec.entries, values.size))
        if spec.mode == "nan":
            values[idx] = np.nan
        else:
            values[idx] *= spec.magnitude
        A.update_rank_values(rank, values)
        self.fired.append(
            {
                "kind": "matrix_corrupt",
                "phase": phase,
                "equation": equation,
                "rank": rank,
                "mode": spec.mode,
                "entries": int(idx.size),
            }
        )
        return True

    def on_solve(self, equation: str, phase: str = "") -> bool:
        """True when the current solve should be forced to stall."""
        spec = self._match("solver_stall", equation)
        if spec is None:
            return False
        self.fired.append(
            {"kind": "solver_stall", "phase": phase, "equation": equation}
        )
        return True

    def on_post(
        self, phase: str, src: int, dst: int, seq: int, payload: np.ndarray
    ) -> list[np.ndarray]:
        """Transform one posted point-to-point message.

        Called by the halo exchange for every message of a round, in
        posting order, and for every re-post.  Returns the copies that
        actually arrive: ``[]`` for a drop, ``[payload]`` untouched, a
        corrupted copy of the payload (the checksum stamped at post is
        *not* restamped — that is the point), or ``[payload, payload]``
        for a duplicate delivery.

        Each post is one opportunity per p2p fault kind, and every
        retry re-post is a fresh post — so consecutive ``at`` values
        schedule faults on successive delivery attempts of the same
        logical message.
        """
        where = {"phase": phase, "src": src, "dst": dst, "seq": seq}
        spec = self._match("message_drop")
        if spec is not None:
            self.fired.append({"kind": "message_drop", **where})
            return []
        spec = self._match("message_corrupt")
        if spec is not None:
            values = self._value_array(payload)
            if values is not None:
                values = values.copy()
                idx = self.rng.integers(
                    values.size, size=min(spec.entries, values.size)
                )
                # Additive perturbation, never NaN: corruption on the
                # wire must be caught by the checksum, not by downstream
                # NaN guards doing the transport layer's job.
                values[idx] += spec.magnitude
                payload = values
                self.fired.append(
                    {
                        "kind": "message_corrupt",
                        **where,
                        "entries": int(idx.size),
                    }
                )
            return [payload]
        spec = self._match("message_duplicate")
        if spec is not None:
            self.fired.append({"kind": "message_duplicate", **where})
            return [payload, payload]
        return [payload]

    def on_worker(self, job_id: str, attempt: int) -> FaultSpec | None:
        """Process-level fault due for this ``(job, attempt)`` dispatch.

        Called by the campaign supervisor when it hands a job attempt to
        a worker.  Matching is keyed directly on the job id (prefix
        match against ``spec.job``; empty matches any job) and the
        0-based attempt index (``spec.at``) — never on a global
        opportunity counter — so the schedule replays identically
        regardless of worker count or completion interleaving.  The
        matched spec is returned for the dispatcher to encode into the
        worker payload (the corresponding ``os._exit``/stall happens in
        the child).
        """
        for spec, st in zip(self.specs, self._state):
            if spec.kind not in WORKER_FAULT_KINDS or st.fired:
                continue
            if spec.job and not job_id.startswith(spec.job):
                continue
            if attempt != spec.at:
                continue
            st.fired = True
            self.fired.append(
                {
                    "kind": spec.kind,
                    "job": job_id,
                    "attempt": attempt,
                    "point": spec.point or "spawn",
                }
            )
            return spec
        return None

    def on_io(self, op: str, path: str = "") -> bool:
        """True when the current checkpoint/store I/O attempt should fail.

        Unlike the one-shot kinds, ``io_fail`` fails a *window* of
        ``entries`` consecutive opportunities starting at ``at``, so the
        writer's retry loop is exercised (and can be
        exhausted by making the window wider than the retry budget).
        A spec with ``job`` set counts (and fails) only I/O whose path
        contains that job id — the deterministic-per-job form campaign
        chaos schedules use.
        """
        for spec, st in zip(self.specs, self._state):
            if spec.kind != "io_fail" or st.fired:
                continue
            if spec.job and spec.job not in path:
                continue
            st.seen += 1
            n = st.seen - 1
            if n < spec.at:
                continue
            if n >= spec.at + spec.entries - 1:
                st.fired = True
            self.fired.append(
                {"kind": "io_fail", "op": op, "path": path, "opportunity": n}
            )
            return True
        return False

    # -- payload helpers -----------------------------------------------------

    @staticmethod
    def _value_array(payload: Any) -> np.ndarray | None:
        """The float value array of a payload, or None when there is none.

        Exchange payloads are either bare value arrays (plan replay /
        halo data) or index-tuples whose last element holds the values
        (cold assembly COO pieces).
        """
        if isinstance(payload, np.ndarray):
            return payload if payload.dtype.kind == "f" and payload.size else None
        if isinstance(payload, tuple) and payload:
            last = payload[-1]
            if isinstance(last, np.ndarray) and last.dtype.kind == "f":
                return last if last.size else None
        return None

    @staticmethod
    def _replace_values(payload: Any, values: np.ndarray) -> Any:
        """Rebuild a payload around a corrupted value array."""
        if isinstance(payload, np.ndarray):
            return values
        return payload[:-1] + (values,)
