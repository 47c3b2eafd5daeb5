"""Campaign runner: sweep expansion, result cache, durable manifest.

The coordinator expands the sweep spec into jobs and drains them through
the one execution path there is — the supervisor protocol of
:mod:`repro.campaign.supervisor` (intake -> attempt under a lease ->
``outcome-NNN.json`` -> classify -> done / retry / quarantine):

* ``workers=0`` runs every attempt inline in this process (serial,
  deterministic order, no ``fork`` needed);
* ``workers>=1`` runs attempts in that many long-lived forked worker
  processes, each a fault domain the supervisor can kill and replace.

Before dispatching, each job's digest is looked up in the
content-addressed :class:`~repro.campaign.store.ResultStore`; a hit
serves the stored canonical result without running anything
(``campaign.cache_hits``).  Completion, quarantine, and cache status are
recorded per job in the durable ``repro.campaign/1`` manifest, making a
killed campaign re-entrant: ``done`` jobs are never re-run, and
interrupted jobs resume from their per-job checkpoint ring when the spec
enables checkpointing.

Job results are deterministic (see ``canonical_result``), so a 2-worker
sweep produces byte-identical stored documents to an inline one —
``benchmarks/check_campaign_determinism.py`` gates exactly that.
"""

from __future__ import annotations

import multiprocessing
import os
import time

from repro.campaign.job import CampaignSpec, JobSpec, result_report
from repro.campaign.manifest import CampaignManifest
from repro.campaign.store import ResultStore
from repro.campaign.supervisor import COUNTERS, Supervisor, SupervisorPolicy
from repro.core.simulation import SimulationReport
from repro.obs.hooks import ObserverHub
from repro.obs.metrics import MetricsRegistry
from repro.resilience.injection import WORKER_FAULT_KINDS, FaultInjector


def _summary_row(entry: dict) -> dict:
    """One job's row of the run summary: its manifest entry without the
    bulk, its failure history as a count of executions — the failed
    attempts, and the one that finished the job (a cache hit is none)."""
    bulk = ("job", "attempts", "lease", "traceback")
    row = {k: v for k, v in entry.items() if k not in bulk}
    if entry.get("attempts"):
        ran = entry["status"] == "done" and not entry["cached"]
        row["attempts"] = len(entry["attempts"]) + ran
    return row


class Campaign:
    """One campaign run (or resume) over a campaign directory.

    Attributes:
        spec: the sweep specification.
        root: campaign directory (manifest, result store, per-job
            checkpoint rings).
        workers: forked worker processes; 0 runs attempts inline in
            this process, serially (no process to kill, so it cannot
            be combined with a job timeout, a heartbeat timeout, or
            worker-fault chaos: ``ValueError``).  ``workers >= 1`` on a
            platform without the ``fork`` start method is a
            ``ValueError`` too.
        hub: observer hub receiving ``campaign_*`` progress events.
        metrics: registry carrying the ``campaign.*`` counters.
        store_dir: result-store directory (default ``<root>/store``).
            Pointing several campaigns at one store lets them share
            results: a job identical to one any prior campaign completed
            is served from the store instead of re-running.
        policy: the :class:`~repro.campaign.supervisor.SupervisorPolicy`
            (attempt budget, backoff, timeouts, breaker); ``None`` means
            ``SupervisorPolicy(max_attempts=1)`` — never retry.
        chaos: optional seeded fault injector driving process-level
            chaos (``worker_crash``/``worker_hang`` specs and store
            ``io_fail`` windows) for the chaos gate and tests.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        root: str,
        workers: int = 0,
        hub: ObserverHub | None = None,
        metrics: MetricsRegistry | None = None,
        store_dir: str | None = None,
        policy: SupervisorPolicy | None = None,
        chaos: FaultInjector | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        policy = policy or SupervisorPolicy(max_attempts=1)
        policy.validate()
        if workers == 0 and (
            policy.job_timeout_s > 0
            or policy.heartbeat_timeout_s > 0
            or (
                chaos is not None
                and any(s.kind in WORKER_FAULT_KINDS for s in chaos.specs)
            )
        ):
            raise ValueError(
                "workers=0 runs attempts inline: job_timeout_s, "
                "heartbeat_timeout_s and worker-fault chaos need a "
                "worker process to kill (use workers >= 1)"
            )
        if workers > 0 and (
            "fork" not in multiprocessing.get_all_start_methods()
        ):
            raise ValueError(
                "campaign workers need the 'fork' start method, which "
                "this platform lacks; run with workers=0"
            )
        self.spec = spec
        self.root = root
        self.workers = workers
        self.hub = hub or ObserverHub()
        self.metrics = metrics or MetricsRegistry()
        self.policy = policy
        self.chaos = chaos
        self.jobs = spec.expand()
        self.store = ResultStore(
            store_dir or os.path.join(root, "store"), injector=chaos
        )
        self.manifest = CampaignManifest(root, spec)
        if os.path.exists(self.manifest.path):
            self.manifest = CampaignManifest.load(root)
            self.manifest.spec = spec
        self.manifest.register(self.jobs)

    @classmethod
    def resume(
        cls,
        root: str,
        workers: int = 0,
        hub: ObserverHub | None = None,
        metrics: MetricsRegistry | None = None,
        store_dir: str | None = None,
        policy: SupervisorPolicy | None = None,
        chaos: FaultInjector | None = None,
    ) -> "Campaign":
        """Re-open an existing campaign directory from its manifest."""
        manifest = CampaignManifest.load(root)
        return cls(
            manifest.spec,
            root,
            workers=workers,
            hub=hub,
            metrics=metrics,
            store_dir=store_dir,
            policy=policy,
            chaos=chaos,
        )

    # -- helpers -------------------------------------------------------------

    def _job_dir(self, job: JobSpec) -> str:
        return os.path.join(self.root, "jobs", job.job_id)

    def _ckpt_dir(self, job: JobSpec) -> str:
        return os.path.join(self._job_dir(job), "checkpoints")

    def _payload(self, job: JobSpec, try_resume: bool) -> dict:
        return {
            "job": job.to_dict(),
            "checkpoint_every": self.spec.checkpoint_every,
            "checkpoint_keep": self.spec.checkpoint_keep,
            "checkpoint_dir": (
                self._ckpt_dir(job) if self.spec.checkpoint_every else ""
            ),
            "try_resume": try_resume,
        }

    # -- dry run -------------------------------------------------------------

    def plan(self) -> list[dict]:
        """The expanded job table without running anything (dry run)."""
        rows = []
        for job in self.jobs:
            digest = job.digest()
            entry = self.manifest.jobs.get(digest, {})
            rows.append(
                {
                    "job_id": job.job_id,
                    "digest": digest,
                    "workload": job.workload,
                    "steps": job.steps,
                    "seed": job.seed,
                    "overrides": job.overrides,
                    "status": entry.get("status", "pending"),
                    "cached": digest in self.store,
                }
            )
        return rows

    # -- execution -----------------------------------------------------------

    def run(
        self, max_jobs: int | None = None, dry_run: bool = False
    ) -> dict:
        """Drain the campaign; returns the summary document.

        ``max_jobs`` bounds the number of jobs *executed* this
        invocation (cache hits are free); remaining jobs stay
        ``pending``/``running`` in the manifest for a later resume.
        """
        if dry_run:
            rows = self.plan()
            self.manifest.save()
            return {
                "format": "repro.campaign.summary/1",
                "name": self.spec.name,
                "dry_run": True,
                "total_jobs": len(rows),
                "jobs": rows,
            }
        start = time.perf_counter()
        self.manifest.save()
        supervisor = Supervisor(self)
        supervisor._transition(
            "start",
            name=self.spec.name,
            total=len(self.jobs),
            workers=self.workers,
        )
        supervisor.run(max_jobs)
        summary = {
            "format": "repro.campaign.summary/1",
            "name": self.spec.name,
            "root": self.root,
            "workers": self.workers,
            "total_jobs": len(self.jobs),
            "status_counts": self.manifest.status_counts(),
            **{
                name.split(".", 1)[1]: int(self.metrics.counter_total(name))
                for name in COUNTERS
            },
            # Always 0: kept only because benchmarks/e2e/workloads.py reads it.
            "plan_shared": 0,
            "wall_s": time.perf_counter() - start,
            "jobs": {
                digest: _summary_row(entry)
                for digest, entry in sorted(self.manifest.jobs.items())
            },
        }
        supervisor._transition("end", summary=summary)
        return summary

    def reports(self) -> list[SimulationReport]:
        """Every job's stored result as a priceable report, in job order."""
        docs = [self.store.get(job.digest()) for job in self.jobs]
        missing = [j.job_id for j, d in zip(self.jobs, docs) if d is None]
        if missing:
            raise RuntimeError(
                f"campaign {self.spec.name!r}: no stored result for {missing}"
            )
        return [result_report(doc) for doc in docs]
