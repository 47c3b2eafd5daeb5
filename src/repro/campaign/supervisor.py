"""The supervisor protocol: the one way a campaign job runs.

At exascale, node mean-time-between-failures makes job death the steady
state of a thousand-job sweep, not the exception — the campaign layer
itself has to degrade gracefully.  Every job goes through the same
protocol — intake (cache, budget, lease liveness) -> attempt under a
lease -> ``outcome-NNN.json`` -> classify -> done / retry / quarantine —
on one of two executors picked from ``Campaign.workers``:

* ``workers == 0`` runs each attempt inline in the coordinator (same
  lease, same outcome file, same classification; needs no ``fork``).
  There is no process to kill, so timeouts, heartbeat kills and
  worker-fault chaos are rejected at ``Campaign`` construction.
* ``workers >= 1`` runs attempts in long-lived forked worker processes,
  each a *fault domain* supervised from outside:

* **Retry with exponential backoff, classified by taxonomy** — a failed
  attempt is classified through the resilience taxonomy
  (:func:`~repro.resilience.guards.classify_failure`); transient kinds
  (``comm_retries_exhausted``, ``io_error``, ``worker_crash``,
  ``worker_hang``, ``job_timeout``, ...) are retried with
  deterministic exponential backoff, while deterministic failures
  (solver divergence, non-finite iterates) are not — re-running them
  replays the identical failure.
* **Leases + heartbeats** — a worker *leases* its job (a per-job
  ``lease.json`` with pid, nonce, and a monotonic beat counter bumped
  on every completed simulation step).  The supervisor polls leases:
  a beat that stops advancing past ``heartbeat_timeout_s`` (a hung
  solve) or an attempt overrunning ``job_timeout_s`` gets its worker
  SIGKILLed, reaped, and the job requeued — from the job's checkpoint
  ring when one exists.
* **Crash-proof workers** — workers are long-lived processes; one that
  dies (``worker_crash``) or is killed is replaced, so the pool heals
  itself instead of shrinking to zero.
* **Poison-job quarantine** — a job that exhausts ``max_attempts``
  is marked ``quarantined`` in the manifest with its full failure
  context (taxonomy, exception type, truncated traceback, per-attempt
  history); the sweep continues and the CLI exit code distinguishes
  "all done" (0), "done with quarantined" (3), and spec/coordinator
  error (1).

Everything is observable, from one place: :data:`TRANSITIONS` declares,
per lifecycle event, the manifest status it persists, the ``campaign.*``
counters it bumps and the hub event that announces it.  Chaos is injected
through process-level :class:`~repro.resilience.injection.FaultSpec`
kinds (``worker_crash``/``worker_hang``/store ``io_fail``) keyed on
``(job, attempt)``, so ``benchmarks/check_campaign_chaos.py`` can pin
the exact counter contract of a seeded fault storm.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from repro.campaign.manifest import STATUS_FIELDS
from repro.durable import atomic_write
from repro.resilience.guards import TRANSIENT_FAILURE_KINDS, classify_failure
from repro.serialize import Config

#: Exit code a worker uses for an injected hard crash (``os._exit``).
CRASH_EXIT_CODE = 86

#: Manifest/lease filename inside each job directory.
LEASE_FILENAME = "lease.json"

#: Truncation bound for persisted tracebacks (manifest post-mortems).
TRACEBACK_LIMIT = 2000

#: Supervisor poll interval (s).
POLL_S = 0.02

#: Exponential backoff multiplier (:meth:`SupervisorPolicy.backoff`).
BACKOFF_FACTOR = 2.0

#: Result-store write retries (with backoff) before the attempt is
#: classified ``io_error``.
STORE_IO_RETRIES = 3

_NONCE_COUNTER = iter(range(1, 1 << 62))


def new_nonce() -> str:
    """A lease nonce unique within and across coordinator processes."""
    return f"{os.getpid()}-{next(_NONCE_COUNTER)}"


def failure_record(
    taxonomy: str,
    error_type: str,
    error: str,
    tb: str = "",
    wall_s: float | None = None,
) -> dict[str, Any]:
    """The record of one failed attempt: its outcome document, and
    (with its ``attempt`` index, stamped at settle) what the manifest
    keeps per attempt."""
    return {
        "ok": False,
        "taxonomy": taxonomy,
        "error_type": error_type,
        "error": error,
        "traceback": tb[-TRACEBACK_LIMIT:],
        "wall_s": wall_s,
    }


def failure_context(
    exc: BaseException, wall_s: float | None = None
) -> dict[str, Any]:
    """The :func:`failure_record` of one caught exception.

    Every broad ``except`` in the campaign layer must route what it
    swallows through this helper (or re-raise), so the failure reaches
    the manifest classified by the resilience taxonomy (lint rule RL010
    enforces the convention statically).
    """
    tb = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    name = type(exc).__name__
    return failure_record(
        classify_failure(exc), name, f"{name}: {exc}", tb, wall_s
    )


# -- policy -------------------------------------------------------------------


@dataclass
class SupervisorPolicy(Config):
    """Supervisor knobs (``Campaign(policy=...)``); each field declares
    its own bound, checked by ``validate()``.

    ``policy=None`` there means ``SupervisorPolicy(max_attempts=1)``:
    never retry.

    Attributes:
        max_attempts: executions allowed per job before quarantine
            (1 = never retry).
        job_timeout_s: wall-clock budget per attempt; 0 disables.
            Needs a worker process to kill (``workers >= 1``).
        heartbeat_timeout_s: kill an attempt whose lease beat has not
            advanced for this long (hang detection); 0 disables.
            Needs ``workers >= 1`` likewise.
        backoff_base_s: first retry delay; attempt ``k`` waits
            ``min(backoff_base_s * BACKOFF_FACTOR**k, backoff_max_s)``
            (deterministic — chaos replays must be bit-stable).
        backoff_max_s: backoff cap.
    """

    max_attempts: int = field(default=3, metadata={"ge": 1})
    job_timeout_s: float = field(default=0.0, metadata={"ge": 0})
    heartbeat_timeout_s: float = field(default=0.0, metadata={"ge": 0})
    backoff_base_s: float = field(default=0.05, metadata={"ge": 0})
    backoff_max_s: float = field(default=2.0, metadata={"ge": 0})

    def backoff(self, attempt: int) -> float:
        """Deterministic delay before re-dispatching attempt ``attempt``."""
        return min(
            self.backoff_base_s * BACKOFF_FACTOR**attempt,
            self.backoff_max_s,
        )


# -- leases -------------------------------------------------------------------


def lease_path(job_dir: str) -> str:
    """The lease file of one job directory."""
    return os.path.join(job_dir, LEASE_FILENAME)


def write_lease(job_dir: str, nonce: str, beat: int = 0) -> None:
    """Atomically write this process's lease."""
    lease = {"pid": os.getpid(), "nonce": nonce, "beat": int(beat)}
    atomic_write(lease_path(job_dir), json.dumps(lease).encode("utf-8"))


def read_lease(job_dir: str) -> dict[str, Any] | None:
    """The job's lease record, or None when absent/torn."""
    try:
        with open(lease_path(job_dir), encoding="utf-8") as fh:
            lease = json.load(fh)
    except (OSError, json.JSONDecodeError, ValueError):
        return None
    if not isinstance(lease, dict) or "pid" not in lease:
        return None
    return lease


def release_lease(job_dir: str) -> None:
    """Remove the job's lease file (idempotent)."""
    try:
        os.unlink(lease_path(job_dir))
    except OSError:
        pass


def pid_alive(pid: int) -> bool:
    """Whether a pid currently names a live process."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def lease_is_live(lease: dict[str, Any] | None) -> bool:
    """Whether a lease belongs to a currently running owner.

    Liveness across coordinator invocations is pid-based: the lease
    holder's process must still exist.  (Within a run, hang detection
    uses beat *progress*, which needs no cross-process clock.)
    """
    return lease is not None and pid_alive(int(lease.get("pid", -1)))


# -- attempt execution (either executor) --------------------------------------


def _ring_has_checkpoints(path: str) -> bool:
    """Whether a checkpoint directory holds any ring entries."""
    try:
        return any(
            name.startswith("ckpt-") and name.endswith(".ckpt")
            for name in os.listdir(path)
        )
    except OSError:
        return False


def execute_job_payload(payload: dict, on_sim: Callable[[Any], None]) -> dict:
    """Run one job to completion.

    The payload and the returned document are plain JSON-shaped dicts so
    they cross the process boundary untouched.  Failures are reported in
    the return value — never raised — with their full
    :func:`failure_context` (taxonomy class, exception type, truncated
    traceback), so one bad job cannot poison its executor and
    post-mortems never require a rerun.

    ``on_sim`` is invoked with the constructed simulation before it
    runs, to attach heartbeat/chaos hooks.
    """
    from repro.core.simulation import NaluWindSimulation
    from repro.resilience.checkpoint import CheckpointError

    from repro.campaign.job import JobSpec, canonical_result

    start = time.perf_counter()
    try:
        job = JobSpec.from_dict(payload["job"])
        config = job.build_config()
        ckpt_dir = payload.get("checkpoint_dir", "")
        if payload.get("checkpoint_every", 0) and ckpt_dir:
            config.checkpoint_every = int(payload["checkpoint_every"])
            config.checkpoint_keep = int(payload.get("checkpoint_keep", 2))
            config.checkpoint_dir = ckpt_dir
        resumed = False
        if (
            payload.get("try_resume", False)
            and ckpt_dir
            and _ring_has_checkpoints(ckpt_dir)
        ):
            config.restart_from = ckpt_dir
            resumed = True
        try:
            sim = NaluWindSimulation(job.workload, config)
        except CheckpointError:
            # Ring unusable (all entries corrupt): run fresh instead.
            config.restart_from = ""
            resumed = False
            sim = NaluWindSimulation(job.workload, config)
        on_sim(sim)
        report = sim.run(job.steps)
        doc = canonical_result(sim, report, job)
        return {
            "ok": True,
            "doc": doc,
            "resumed": resumed,
            "wall_s": time.perf_counter() - start,
        }
    except Exception as exc:  # noqa: BLE001 - reported to the coordinator
        return failure_context(exc, time.perf_counter() - start)


def _outcome_path(job_dir: str, attempt: int) -> str:
    return os.path.join(job_dir, f"outcome-{attempt:03d}.json")


def _write_outcome(path: str, outcome: dict) -> None:
    """Atomically persist an attempt outcome document."""
    atomic_write(path, json.dumps(outcome).encode("utf-8"))


def _load_outcome(path: str) -> dict:
    """The attempt's outcome document; unreadable/torn is itself a
    classified (``io_error``) failure outcome."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return failure_context(exc)


def _stall_forever() -> None:  # pragma: no cover - killed by supervisor
    while True:
        time.sleep(0.05)


def _install_ckpt_tripwire(kind: str) -> None:
    """Arm a mid-checkpoint-write fault: die (or stall) between the
    checkpoint tmp write and its atomic ``os.replace`` — the torn-write
    instant a real node death would hit."""
    real_replace = os.replace

    def tripwire(src: str, dst: str) -> None:
        if os.path.basename(str(dst)).startswith("ckpt-"):
            if kind == "worker_crash":
                os._exit(CRASH_EXIT_CODE)
            _stall_forever()
        real_replace(src, dst)

    os.replace = tripwire


def _run_attempt(payload: dict) -> None:
    """Execute one job attempt (in a worker process, or inline).

    Acquires the job lease, beats it on every completed step, honours
    any injected process fault at its configured point, and atomically
    writes the outcome document the supervisor reads.
    """
    job_dir = payload["job_dir"]
    nonce = payload["nonce"]
    attempt = int(payload["attempt"])
    fault = payload.get("fault") or {}
    kind, point = fault.get("kind", ""), fault.get("point", "")

    def trip(here: str) -> None:
        if kind and point == here:
            if kind == "worker_crash":
                os._exit(CRASH_EXIT_CODE)
            _stall_forever()

    trip("spawn")
    beat = {"n": 0}
    write_lease(job_dir, nonce, beat["n"])
    trip("lease")
    if point == "ckpt" and kind:
        _install_ckpt_tripwire(kind)

    def on_sim(sim) -> None:
        def on_step(**_kw) -> None:
            beat["n"] += 1
            write_lease(job_dir, nonce, beat["n"])

        sim.world.hub.subscribe("step_complete", on_step)
        if point == "run" and kind:
            sim.world.hub.subscribe("checkpoint", lambda **_kw: trip("run"))

    outcome = execute_job_payload(payload, on_sim)
    trip("store")
    _write_outcome(_outcome_path(job_dir, attempt), outcome)
    release_lease(job_dir)


def _attempt(payload: dict) -> None:
    """:func:`_run_attempt`, never raising: the executor must survive."""
    try:
        _run_attempt(payload)
    except Exception as exc:  # noqa: BLE001 - executor must survive
        # Even a broken attempt reports a classified outcome
        # (failure_context) instead of killing its executor.
        try:
            _write_outcome(
                _outcome_path(payload["job_dir"], int(payload["attempt"])),
                failure_context(exc, 0.0),
            )
            release_lease(payload["job_dir"])
        except OSError:
            # Outcome unreportable (disk full, job dir gone).  Inline,
            # the missing file reads back as an io_error outcome; a
            # forked worker is reaped by hang/timeout detection and the
            # taxonomy recorded there as worker_hang/job_timeout.
            pass


def _worker_main(task_q) -> None:
    """Long-lived worker loop: lease, execute, report, repeat."""
    while True:
        payload = task_q.get()
        if payload is None:
            return
        _attempt(payload)


# -- the supervisor -----------------------------------------------------------


class Transition(NamedTuple):
    """One row of :data:`TRANSITIONS`, the events of a campaign run.  A job
    event is announced as a ``campaign_job`` row whose ``status`` is the
    event's name."""

    status: str | None = None  #: manifest status written, if any
    counters: tuple[str, ...] = ()  #: each bumped by one
    emits: str = ""  #: hub event kind, where not a ``campaign_job`` row


TRANSITIONS = {
    "start": Transition(emits="campaign_start"),
    "leased": Transition(),
    "takeover": Transition(
        None, ("campaign.lease_expired",), "lease_takeover"
    ),
    "cached": Transition("done", ("campaign.cache_hits",)),
    "deferred": Transition(),
    "running": Transition("running"),
    "done": Transition("done", ("campaign.jobs_run",)),
    "retry": Transition("pending", ("campaign.retries",)),
    "requeue": Transition("pending", ("campaign.requeues",)),
    "quarantined": Transition(
        "quarantined", ("campaign.quarantined", "campaign.jobs_failed")
    ),
    "end": Transition(emits="campaign_end"),
}

#: The run summary's counters: the table's, then facts counted where seen.
COUNTERS = (
    *dict.fromkeys(c for row in TRANSITIONS.values() for c in row.counters),
    "campaign.cache_misses",
    "campaign.jobs_resumed",
    "campaign.store_retries",
)


class _WorkerHandle:
    """One forked worker process and its in-flight attempt state."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.task_q = ctx.SimpleQueue()
        self.proc = ctx.Process(
            target=_worker_main, args=(self.task_q,), daemon=True
        )
        self.proc.start()
        self.job = None  # (JobSpec, digest, attempt, dispatched_at)
        self.job_dir = ""
        self.last_beat = -1
        self.last_beat_change = 0.0

    @property
    def busy(self) -> bool:
        return self.job is not None


class Supervisor:
    """Drains one campaign run through the attempt protocol.

    Owns intake, the retry/quarantine state machine, and both executors (inline and forked workers, with hang
    detection for the latter); reads its policy and chaos injector from
    the campaign and mutates the campaign's manifest and metrics.
    """

    def __init__(self, campaign) -> None:
        self.campaign = campaign
        self.policy: SupervisorPolicy = campaign.policy
        self.metrics = campaign.metrics
        self.hub = campaign.hub
        self.manifest = campaign.manifest

    def _transition(
        self, event: str, job=None, digest="", failure=None, **facts: Any
    ) -> None:
        """Apply one :data:`TRANSITIONS` row — the only writer of job
        state: bump its counters, persist its status with the facts that
        status declares (``failure`` joins the job's history), announce it
        with all of them.  The run's own events have no ``job``."""
        row = TRANSITIONS[event]
        for name in row.counters:
            self.metrics.counter(name).inc()
        if row.status is not None:
            declared = STATUS_FIELDS[row.status]
            self.manifest.mark(
                digest,
                row.status,
                failure=failure,
                **{k: v for k, v in facts.items() if k in declared},
            )
        if job is not None:
            facts.update(job_id=job.job_id, digest=digest, status=event)
        self.hub.emit(row.emits or "campaign_job", **(failure or {}), **facts)

    # -- intake --------------------------------------------------------------

    def _intake(self, max_jobs: int | None) -> list[tuple]:
        """Screen every job: cache, budget, lease liveness.

        Returns the ready list of ``(job, digest, attempt, try_resume)``.
        """
        camp = self.campaign
        budget = max_jobs if max_jobs is not None else len(camp.jobs)
        ready: list[tuple] = []
        for job in camp.jobs:
            digest = job.digest()
            entry = self.manifest.jobs[digest]
            status = entry["status"]
            if status in ("done", "quarantined"):
                continue
            try_resume = False
            if status == "running":
                job_dir = camp._job_dir(job)
                lease = read_lease(job_dir)
                if lease_is_live(lease):
                    # Another coordinator's worker holds this job: do
                    # not double-run it (the pre-lease behavior).
                    self._transition("leased", job, digest, pid=lease["pid"])
                    continue
                if lease is not None:
                    self._transition(
                        "takeover",
                        job,
                        digest,
                        pid=lease.get("pid"),
                        nonce=lease.get("nonce"),
                    )
                    release_lease(job_dir)
                try_resume = True
            if camp.store.get(digest) is not None:
                self._transition(
                    "cached",
                    job,
                    digest,
                    cached=True,
                    result=os.path.relpath(
                        camp.store.path(digest), camp.root
                    ),
                )
                continue
            self.metrics.counter("campaign.cache_misses").inc()
            if budget <= 0:
                self._transition("deferred", job, digest)
                continue
            budget -= 1
            attempt = len(entry.get("attempts", []))
            ready.append((job, digest, attempt, try_resume))
        return ready

    # -- dispatch ------------------------------------------------------------

    def _begin(self, item: tuple, pid: int) -> dict:
        """Open one attempt: mark it running, return its payload.

        ``pid`` is the executor process that will hold the job lease.
        """
        job, digest, attempt, try_resume = item
        camp = self.campaign
        job_dir = camp._job_dir(job)
        nonce = new_nonce()
        payload = camp._payload(job, try_resume=try_resume)
        payload.update(job_dir=job_dir, attempt=attempt, nonce=nonce)
        if camp.chaos is not None:
            spec = camp.chaos.on_worker(job.job_id, attempt)
            if spec is not None:
                payload["fault"] = {
                    "kind": spec.kind,
                    "point": spec.point or "spawn",
                }
        # Stale outcome of a takeover'd previous coordinator would be
        # mistaken for this attempt's result.
        try:
            os.unlink(_outcome_path(job_dir, attempt))
        except OSError:
            pass
        self._transition(
            "running",
            job,
            digest,
            lease={"pid": pid, "nonce": nonce},
            attempt=attempt,
            resume=try_resume,
        )
        return payload

    def _dispatch(self, worker: _WorkerHandle, item: tuple) -> None:
        payload = self._begin(item, worker.proc.pid)
        job, digest, attempt, _try_resume = item
        worker.job = (job, digest, attempt, time.monotonic())
        worker.job_dir = payload["job_dir"]
        worker.last_beat = -1
        worker.last_beat_change = time.monotonic()
        worker.task_q.put(payload)

    @staticmethod
    def _respawn(worker: _WorkerHandle) -> _WorkerHandle:
        """Replace a dead/killed worker process (crash-proof pool)."""
        if worker.proc.is_alive():  # pragma: no cover - defensive
            worker.proc.kill()
        worker.proc.join(timeout=5)
        return _WorkerHandle(worker.ctx)

    # -- outcome handling ----------------------------------------------------

    def _store_result(self, digest: str, doc: dict) -> str:
        """Persist one result with retry-with-backoff on I/O failure.

        Returns the stored path; the ``OSError`` that exhausts the retry
        budget propagates (the attempt is then classified ``io_error``
        and routed through the retry machinery like any other transient
        failure).
        """
        for i in range(STORE_IO_RETRIES):
            try:
                return self.campaign.store.put(digest, doc)
            except OSError:
                self.metrics.counter("campaign.store_retries").inc()
                time.sleep(self.policy.backoff(i))
        return self.campaign.store.put(digest, doc)

    def _on_success(
        self, job, digest: str, attempt: int, outcome: dict, stored: str
    ) -> None:
        """Close a job whose result is in the store at ``stored``."""
        camp = self.campaign
        if outcome.get("resumed"):
            self.metrics.counter("campaign.jobs_resumed").inc()
        release_lease(camp._job_dir(job))
        self._transition(
            "done",
            job,
            digest,
            cached=False,
            result=os.path.relpath(stored, camp.root),
            wall_s=outcome.get("wall_s"),
            attempt=attempt,
            resumed=bool(outcome.get("resumed")),
        )

    def _on_failure(
        self, job, digest: str, failure: dict, delayed: list
    ) -> None:
        """Retry (transient, attempts left) or quarantine one failure."""
        release_lease(self.campaign._job_dir(job))
        attempt, taxonomy = failure["attempt"], failure["taxonomy"]
        if (
            taxonomy in TRANSIENT_FAILURE_KINDS
            and attempt + 1 < self.policy.max_attempts
        ):
            delay = self.policy.backoff(attempt)
            killed = taxonomy in ("worker_hang", "job_timeout")
            self._transition(
                "requeue" if killed else "retry",
                job,
                digest,
                failure=failure,
                delay_s=delay,
            )
            delayed.append(
                (time.monotonic() + delay, job, digest, attempt + 1)
            )
            return
        self._transition(
            "quarantined", job, digest, failure=failure, attempts=attempt + 1
        )

    def _settle(
        self, job, digest: str, attempt: int, outcome: dict, delayed: list
    ) -> None:
        """Close one attempt: store its result, or retry/quarantine.

        ``outcome`` is the attempt's outcome document or a failure
        record the supervisor built itself (crash, hang, timeout).
        """
        failure: dict | None = outcome
        if outcome["ok"]:
            try:
                stored = self._store_result(digest, outcome["doc"])
            except OSError as exc:
                failure = failure_context(exc)
            else:
                failure = None
                self._on_success(job, digest, attempt, outcome, stored)
        if failure is not None:
            self._on_failure(
                job, digest, {**failure, "attempt": attempt}, delayed
            )

    @staticmethod
    def _promote_due(ready: list, delayed: list) -> None:
        """Move retries whose backoff has elapsed to the head of
        ``ready``: finish wounded jobs before opening new fault domains."""
        now = time.monotonic()
        due = [d for d in delayed if d[0] <= now]
        if due:
            delayed[:] = [d for d in delayed if d[0] > now]
            ready[:0] = [
                (job, digest, attempt, True)
                for _t, job, digest, attempt in due
            ]

    # -- inline executor -----------------------------------------------------

    def _run_inline(self, ready: list, delayed: list) -> None:
        """Run attempts one at a time in this process."""
        while ready or delayed:
            self._promote_due(ready, delayed)
            if not ready:
                time.sleep(POLL_S)
                continue
            item = ready.pop(0)
            job, digest, attempt, _try_resume = item
            payload = self._begin(item, os.getpid())
            _attempt(payload)
            outcome = _load_outcome(_outcome_path(payload["job_dir"], attempt))
            self._settle(job, digest, attempt, outcome, delayed)

    # -- forked-worker executor ----------------------------------------------

    def _poll_worker(self, worker: _WorkerHandle, delayed: list) -> bool:
        """Check one busy worker; True when its attempt finished."""
        job, digest, attempt, dispatched = worker.job
        outcome_file = _outcome_path(worker.job_dir, attempt)
        if os.path.exists(outcome_file):
            outcome = _load_outcome(outcome_file)
        elif worker.proc.exitcode is not None:
            # Worker died without reporting: a crash fault domain.
            outcome = failure_record(
                "worker_crash",
                "WorkerCrash",
                f"worker exited with code {worker.proc.exitcode} "
                "before reporting an outcome",
            )
        else:
            now = time.monotonic()
            lease = read_lease(worker.job_dir)
            beat = -1 if lease is None else int(lease.get("beat", -1))
            if lease is not None and beat != worker.last_beat:
                worker.last_beat = beat
                worker.last_beat_change = now
            stalled = now - worker.last_beat_change
            hang = 0 < self.policy.heartbeat_timeout_s < stalled
            timeout = 0 < self.policy.job_timeout_s < now - dispatched
            if not (hang or timeout):
                return False
            if hang:
                taxonomy, why = "worker_hang", "lease heartbeat stalled"
            else:
                taxonomy, why = "job_timeout", "wall-clock budget exceeded"
            self.metrics.counter("campaign.lease_expired").inc()
            worker.proc.kill()
            worker.proc.join(timeout=5)
            outcome = failure_record(
                taxonomy,
                "LeaseExpired",
                f"attempt {attempt} {taxonomy}: {why} "
                f"after {now - dispatched:.2f}s (worker killed)",
            )
        self._settle(job, digest, attempt, outcome, delayed)
        worker.job = None
        return True

    def _run_forked(self, ready: list, delayed: list) -> None:
        """Run attempts in ``campaign.workers`` forked worker processes."""
        ctx = multiprocessing.get_context("fork")
        workers = [_WorkerHandle(ctx) for _ in range(self.campaign.workers)]
        try:
            while ready or delayed or any(w.busy for w in workers):
                self._promote_due(ready, delayed)
                for i, worker in enumerate(workers):
                    if ready and not worker.busy:
                        if worker.proc.exitcode is not None:
                            workers[i] = worker = self._respawn(worker)
                        self._dispatch(worker, ready.pop(0))
                finished = False
                for i, worker in enumerate(workers):
                    if worker.busy and self._poll_worker(worker, delayed):
                        finished = True
                        if worker.proc.exitcode is not None:
                            workers[i] = self._respawn(worker)
                if not finished:
                    time.sleep(POLL_S)
        finally:
            for worker in workers:
                if worker.proc.is_alive():
                    worker.task_q.put(None)
            for worker in workers:
                worker.proc.join(timeout=5)
                if worker.proc.is_alive():  # pragma: no cover - stuck
                    worker.proc.kill()
                    worker.proc.join(timeout=5)

    def run(self, max_jobs: int | None = None) -> None:
        """Drain the campaign: intake, then the executor ``workers`` picks."""
        ready = self._intake(max_jobs)
        if not ready:
            return
        delayed: list[tuple] = []  # (ready_at, job, digest, attempt)
        if self.campaign.workers == 0:
            self._run_inline(ready, delayed)
        else:
            self._run_forked(ready, delayed)
