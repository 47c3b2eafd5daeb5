"""Content-addressed result store.

Results live under one directory as ``<digest>.json``, where the digest
is :meth:`~repro.campaign.job.JobSpec.digest` — a hash of the workload,
step count, and resolved configuration.  A lookup hit means the exact
same job already ran; the stored canonical result document is returned
byte-identically (documents are written in canonical JSON, so the
on-disk bytes themselves are deterministic).

Writes are atomic (:func:`repro.durable.atomic_write`) so a killed
campaign never leaves a truncated result to poison later lookups; a
corrupt or foreign file is treated as a miss and overwritten.
"""

from __future__ import annotations

import json
import os

from repro.campaign.job import RESULT_FORMAT
from repro.durable import atomic_write
from repro.serialize import canonical_json


class ResultStore:
    """Directory-backed map from job digest to canonical result doc.

    ``injector`` (a :class:`~repro.resilience.injection.FaultInjector`)
    arms deterministic write faults: each :meth:`put` consults the
    injector's ``io_fail`` windows at site ``"store_put"`` before
    touching the filesystem, so chaos runs can exercise the supervisor's
    store-retry path without a real flaky disk.
    """

    def __init__(self, root: str, injector=None) -> None:
        self.root = root
        self.injector = injector
        os.makedirs(root, exist_ok=True)

    def path(self, digest: str) -> str:
        """On-disk path of one digest's result document."""
        return os.path.join(self.root, f"{digest}.json")

    def get(self, digest: str) -> dict | None:
        """The stored result document, or None on a miss.

        Unreadable/corrupt/foreign-format files count as misses (the
        caller recomputes and overwrites).
        """
        path = self.path(digest)
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(doc, dict)
            or doc.get("format") != RESULT_FORMAT
            or doc.get("digest") != digest
        ):
            return None
        return doc

    def get_bytes(self, digest: str) -> bytes | None:
        """The stored document's exact on-disk bytes (bitwise checks)."""
        if self.get(digest) is None:
            return None
        with open(self.path(digest), "rb") as fh:
            return fh.read()

    def put(self, digest: str, doc: dict) -> str:
        """Atomically store a result document; returns its path.

        The document is serialized in canonical JSON (sorted keys,
        compact separators), so identical documents are byte-identical
        on disk.
        """
        path = self.path(digest)
        if self.injector is not None and self.injector.on_io(
            "store_put", path
        ):
            raise OSError(f"injected store write fault: {path}")
        atomic_write(path, canonical_json(doc).encode("utf-8"))
        return path

    def __contains__(self, digest: str) -> bool:
        return self.get(digest) is not None

    def __len__(self) -> int:
        return sum(
            1 for name in os.listdir(self.root) if name.endswith(".json")
        )
