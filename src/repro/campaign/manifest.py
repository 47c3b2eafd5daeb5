"""The ``repro.campaign/1`` manifest: durable per-job campaign state.

One JSON document per campaign directory records the sweep spec and the
state of every job, so a killed campaign is re-entrant: ``campaign
resume`` reloads the manifest, skips every ``done`` or ``quarantined``
job outright, and re-dispatches the rest (``running`` jobs resume from
their per-job checkpoint ring when one exists).

A job entry is ``status``, ``job`` (the spec), ``attempts`` (one
:data:`FAILURE_FIELDS` record per failed attempt, once there is one) and
exactly the fields :data:`STATUS_FIELDS` declares for its status —
:meth:`CampaignManifest.mark` drops what the state being left carried.
``quarantined`` is the poison-job terminal state (attempt budget
exhausted, or a deterministic failure): later resumes skip the job, and
its entry is the last failure's context, for post-mortems.

Every mutation rewrites the whole document atomically
(:func:`repro.durable.atomic_write`, as the checkpoint ring does) — a
kill at any instant leaves either the old or the new manifest, never a
torn one.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.campaign.job import CampaignSpec, JobSpec
from repro.durable import atomic_write

#: Format tag of the manifest document.
MANIFEST_FORMAT = "repro.campaign/1"

#: Per status, the fields an entry carries besides ``status``, ``job`` and
#: ``attempts`` (``pending`` carries ``error`` only after a failed attempt).
STATUS_FIELDS = {
    "pending": ("error",),
    "running": ("lease",),
    "done": ("cached", "result", "wall_s"),
    "quarantined": ("error", "error_type", "taxonomy", "traceback", "wall_s"),
}
JOB_STATUSES = tuple(STATUS_FIELDS)  #: allowed job states

#: What the ``attempts`` history keeps of one failed attempt.
FAILURE_FIELDS = (
    "attempt", "taxonomy", "error_type", "error", "traceback", "wall_s",
)


class ManifestError(RuntimeError):
    """A manifest file is missing, torn, or from an unknown format."""


class CampaignManifest:
    """Load/mutate/persist one campaign's manifest document."""

    FILENAME = "manifest.json"

    def __init__(self, root: str, spec: CampaignSpec) -> None:
        self.root = root
        self.spec = spec
        self.jobs: dict[str, dict[str, Any]] = {}

    @property
    def path(self) -> str:
        """The manifest file's path."""
        return os.path.join(self.root, self.FILENAME)

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        """The full manifest document."""
        return {
            "format": MANIFEST_FORMAT,
            "name": self.spec.name,
            "spec": self.spec.to_dict(),
            "jobs": self.jobs,
        }

    def save(self) -> None:
        """Atomically persist the manifest."""
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        atomic_write(self.path, text.encode("utf-8"))

    @classmethod
    def load(cls, root: str) -> "CampaignManifest":
        """Load an existing campaign directory's manifest."""
        path = os.path.join(root, cls.FILENAME)
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ManifestError(f"no campaign manifest at {path}") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise ManifestError(f"unreadable manifest {path}: {exc}") from exc
        if doc.get("format") != MANIFEST_FORMAT:
            raise ManifestError(
                f"{path}: unsupported format {doc.get('format')!r} "
                f"(expected {MANIFEST_FORMAT!r})"
            )
        manifest = cls(root, CampaignSpec.from_dict(doc["spec"]))
        jobs = doc.get("jobs", {})
        if not isinstance(jobs, dict):
            raise ManifestError(f"{path}: 'jobs' must be a mapping")
        manifest.jobs = jobs
        return manifest

    # -- job bookkeeping -----------------------------------------------------

    def register(self, jobs: list[JobSpec]) -> None:
        """Ensure every expanded job has a manifest entry.

        Existing entries (a resume) keep their recorded status; an
        interrupted process may have left jobs ``running`` — those are
        the resume candidates.
        """
        for job in jobs:
            digest = job.digest()
            entry = self.jobs.setdefault(
                digest,
                {
                    "status": "pending",
                    "job": job.to_dict(),
                },
            )
            entry.setdefault("status", "pending")
            if entry["status"] not in JOB_STATUSES:
                raise ManifestError(
                    f"job {digest[:12]}: unknown status {entry['status']!r}"
                )

    def mark(
        self,
        digest: str,
        status: str,
        failure: dict[str, Any] | None = None,
        **fields: Any,
    ) -> None:
        """Move one job to ``status`` and persist.

        The entry keeps ``job`` and its ``attempts`` history, drops the
        fields of the state it leaves, and takes ``fields`` — each one
        declared for ``status`` in :data:`STATUS_FIELDS`, else
        ``ValueError``.  ``failure`` (the record of the attempt that just
        failed) joins the history and supplies the declared fields it has.
        """
        if status not in STATUS_FIELDS:
            raise ValueError(f"unknown job status {status!r}")
        declared = STATUS_FIELDS[status]
        undeclared = sorted(set(fields) - set(declared))
        if undeclared:
            raise ValueError(
                f"a {status!r} entry carries {declared}, not {undeclared}"
            )
        entry = self.jobs[digest]
        kept = {k: entry[k] for k in ("job", "attempts") if k in entry}
        entry.clear()
        entry.update(kept, status=status)
        if failure is not None:
            record = {k: failure[k] for k in FAILURE_FIELDS}
            entry.setdefault("attempts", []).append(record)
            entry.update({k: record[k] for k in declared if k in record})
        entry.update(fields)
        self.save()

    def status_counts(self) -> dict[str, int]:
        """Job counts by status (all statuses present, zero-filled)."""
        counts = {status: 0 for status in JOB_STATUSES}
        for entry in self.jobs.values():
            counts[entry["status"]] = counts.get(entry["status"], 0) + 1
        return counts
