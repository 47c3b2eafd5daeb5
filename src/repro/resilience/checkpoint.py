"""Durable checkpoint/restart with bitwise-exact resume.

Multi-day wind-farm campaigns cannot afford to lose a run to one node
failure; production exascale stacks therefore treat durable simulation
state as a prerequisite, not a luxury.  This module provides the on-disk
format and the :class:`CheckpointManager` retention/retry policy; the
driver's ``state()`` / ``environment()`` declaration decides *what* goes in
and :class:`~repro.resilience.transaction.StepTransaction` when.

Format ``repro.checkpoint/1``
-----------------------------

One self-describing container file::

    magic   8 bytes   b"RPCKPT01"
    hlen    8 bytes   little-endian u64: header length in bytes
    header  hlen      UTF-8 JSON (sorted keys)
    payload ...       raw little-endian array bytes, concatenated

The header carries ``schema``, a free-form JSON ``meta`` block (step
index, dt, RNG states, telemetry counters...), a per-array index
(``dtype``/``shape``/``offset``/``nbytes``/``crc32``) and a whole-payload
``payload_crc32``.  Every array round-trips through raw bytes
(``tobytes``/``frombuffer``) so float64 state is restored **bitwise**;
JSON floats round-trip exactly too (shortest-repr encoding).  The
:data:`DERIVED_SECTION` (a ``meta`` entry plus arrays under its prefix)
says which derived objects the writer held live; it is an ordinary part of
the same container, so the format revision is unchanged.

Durability properties:

* **atomic writes** — :func:`repro.durable.atomic_write` (temp file in
  the target directory, ``fsync``, then ``os.replace``): a crash
  mid-write never clobbers an existing good checkpoint;
* **corruption detection** — magic, schema, per-array and payload CRC32
  checks on load raise :class:`CheckpointCorruptionError` instead of
  returning garbage;
* **last-good fallback** — :meth:`CheckpointManager.load_latest_good`
  walks the retention ring newest-first and returns the first checkpoint
  that verifies;
* **write retries** — writes retry against transient I/O failures
  (including ``io_fail`` faults injected through
  :class:`~repro.resilience.injection.FaultInjector.on_io`), surfacing
  ``resilience.checkpoint.write_retries``/``write_failures`` counters.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any

import numpy as np

from repro.durable import atomic_write

#: Container magic (8 bytes, includes the container revision).
MAGIC = b"RPCKPT01"

#: Header schema identifier.
SCHEMA = "repro.checkpoint/1"

#: The section naming the writer's live derived state: a ``meta`` key and
#: the prefix of its arrays.  Files written before it existed lack it.
DERIVED_SECTION = "derived"

#: Checkpoint file name pattern (``step`` is the step index at capture).
FILE_PATTERN = "ckpt-{step:08d}.ckpt"


class CheckpointError(RuntimeError):
    """Base class for checkpoint failures."""


class CheckpointCorruptionError(CheckpointError):
    """A checkpoint file failed validation (magic/schema/checksum)."""


class CheckpointWriteError(CheckpointError):
    """A checkpoint write failed (after exhausting retries)."""


class CheckpointNotFoundError(CheckpointError):
    """No loadable checkpoint exists where one was expected."""


def serialize_checkpoint(
    arrays: dict[str, np.ndarray], meta: dict[str, Any]
) -> bytes:
    """Serialize arrays + metadata into one ``repro.checkpoint/1`` blob."""
    index: dict[str, dict[str, Any]] = {}
    chunks: list[bytes] = []
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        raw = arr.tobytes()
        index[name] = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(raw),
            "crc32": zlib.crc32(raw),
        }
        chunks.append(raw)
        offset += len(raw)
    payload = b"".join(chunks)
    header = {
        "schema": SCHEMA,
        "meta": meta,
        "arrays": index,
        "payload_nbytes": len(payload),
        "payload_crc32": zlib.crc32(payload),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return (
        MAGIC
        + len(header_bytes).to_bytes(8, "little")
        + header_bytes
        + payload
    )


def deserialize_checkpoint(
    blob: bytes,
) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Parse and validate one checkpoint blob.

    Returns ``(arrays, meta)``; raises
    :class:`CheckpointCorruptionError` on any validation failure (bad
    magic, truncation, schema mismatch, CRC mismatch).
    """
    if len(blob) < len(MAGIC) + 8:
        raise CheckpointCorruptionError(
            f"checkpoint truncated: {len(blob)} bytes is smaller than the "
            "container preamble"
        )
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointCorruptionError(
            f"bad checkpoint magic {blob[:len(MAGIC)]!r} (expected {MAGIC!r})"
        )
    hlen = int.from_bytes(blob[len(MAGIC) : len(MAGIC) + 8], "little")
    hstart = len(MAGIC) + 8
    if hstart + hlen > len(blob):
        raise CheckpointCorruptionError(
            f"checkpoint truncated: header claims {hlen} bytes, "
            f"{len(blob) - hstart} available"
        )
    try:
        header = json.loads(blob[hstart : hstart + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptionError(
            f"checkpoint header is not valid JSON: {exc}"
        ) from exc
    if header.get("schema") != SCHEMA:
        raise CheckpointCorruptionError(
            f"unsupported checkpoint schema {header.get('schema')!r} "
            f"(expected {SCHEMA!r})"
        )
    payload = blob[hstart + hlen :]
    if len(payload) != header["payload_nbytes"]:
        raise CheckpointCorruptionError(
            f"checkpoint payload truncated: expected "
            f"{header['payload_nbytes']} bytes, got {len(payload)}"
        )
    if zlib.crc32(payload) != header["payload_crc32"]:
        raise CheckpointCorruptionError(
            "checkpoint payload failed its CRC32 check"
        )
    arrays: dict[str, np.ndarray] = {}
    for name, entry in header["arrays"].items():
        raw = payload[entry["offset"] : entry["offset"] + entry["nbytes"]]
        if zlib.crc32(raw) != entry["crc32"]:
            raise CheckpointCorruptionError(
                f"checkpoint array {name!r} failed its CRC32 check"
            )
        arrays[name] = (
            np.frombuffer(raw, dtype=np.dtype(entry["dtype"]))
            .reshape(entry["shape"])
            .copy()
        )
    return arrays, header["meta"]


def read_checkpoint(
    path: str, *, injector: Any = None
) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Read and validate one checkpoint file.

    Raises :class:`CheckpointNotFoundError` when the file does not
    exist, :class:`CheckpointCorruptionError` when it fails validation
    (including an injected ``io_fail`` read fault — a failed read and a
    corrupt file are the same event to the fallback logic).
    """
    if injector is not None and injector.on_io("read", path):
        raise CheckpointCorruptionError(
            f"checkpoint read failed (injected I/O fault): {path}"
        )
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise CheckpointNotFoundError(
            f"checkpoint not found: {path}"
        ) from None
    except OSError as exc:
        raise CheckpointCorruptionError(
            f"checkpoint read failed: {path}: {exc}"
        ) from exc
    return deserialize_checkpoint(blob)


def checkpoint_step(path: str) -> int:
    """Step index encoded in a checkpoint file name (-1 when foreign)."""
    name = os.path.basename(path)
    if not (name.startswith("ckpt-") and name.endswith(".ckpt")):
        return -1
    try:
        return int(name[len("ckpt-") : -len(".ckpt")])
    except ValueError:
        return -1


class CheckpointManager:
    """Retention ring + retrying atomic writer over one directory.

    Args:
        directory: where checkpoint files live (created on first save).
        keep: retention-ring size — the newest ``keep`` checkpoints are
            kept, older ones deleted after each successful save.
        max_io_retries: write attempts after the first before a save
            fails for good.
        injector: optional :class:`FaultInjector` exercising the retry
            path (``on_io`` hook).
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
            receiving ``resilience.checkpoint.write_retries`` /
            ``write_failures`` / ``loads`` / ``corrupt_detected``
            counters.  (The ``writes``/``restores`` counters belong to
            the step transaction: it must count a write *before*
            capturing telemetry state so restored counters line up with
            an uninterrupted run.)
    """

    def __init__(
        self,
        directory: str,
        *,
        keep: int = 2,
        max_io_retries: int = 3,
        injector: Any = None,
        metrics: Any = None,
    ) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        if max_io_retries < 0:
            raise ValueError("max_io_retries must be >= 0")
        self.directory = directory
        self.keep = int(keep)
        self.max_io_retries = int(max_io_retries)
        self.injector = injector
        self.metrics = metrics

    # -- write side ----------------------------------------------------------

    def save(
        self, step: int, arrays: dict[str, np.ndarray], meta: dict[str, Any]
    ) -> str:
        """Durably write one checkpoint; returns its path.

        The blob is serialized once, then written atomically with up to
        ``max_io_retries`` retries against
        transient failures; the retention ring is pruned only after the
        new checkpoint is safely on disk.
        """
        path = os.path.join(self.directory, FILE_PATTERN.format(step=step))
        blob = serialize_checkpoint(arrays, meta)
        last_exc: Exception | None = None
        for attempt in range(1 + self.max_io_retries):
            if attempt > 0:
                self._count("write_retries")
            try:
                self._write_atomic(path, blob)
                self._prune(protect=path)
                return path
            except OSError as exc:
                last_exc = exc
        self._count("write_failures")
        raise CheckpointWriteError(
            f"checkpoint write failed after {1 + self.max_io_retries} "
            f"attempt(s): {path}: {last_exc}"
        )

    def _write_atomic(self, path: str, blob: bytes) -> None:
        """temp file + fsync + rename; never clobbers a good checkpoint."""
        if self.injector is not None and self.injector.on_io("write", path):
            raise OSError(f"injected I/O fault writing {path}")
        # One writer per ring: a fixed suffix lets the retry after a kill
        # overwrite the (large) temp the dead attempt left behind.
        atomic_write(path, blob, tmp_suffix=".tmp")

    def _prune(self, protect: str) -> None:
        """Delete ring entries beyond ``keep`` (never the one just written)."""
        entries = self.list_checkpoints()
        for path in entries[: max(0, len(entries) - self.keep)]:
            if os.path.abspath(path) != os.path.abspath(protect):
                os.unlink(path)

    # -- read side -----------------------------------------------------------

    def list_checkpoints(self) -> list[str]:
        """Ring entries sorted oldest-first by step index."""
        if not os.path.isdir(self.directory):
            return []
        paths = [
            os.path.join(self.directory, name)
            for name in os.listdir(self.directory)
            if checkpoint_step(name) >= 0
        ]
        return sorted(paths, key=checkpoint_step)

    def load(self, path: str) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        """Read and validate one specific checkpoint file."""
        self._count("loads")
        try:
            return read_checkpoint(path, injector=self.injector)
        except CheckpointCorruptionError:
            self._count("corrupt_detected")
            raise

    def load_latest_good(
        self,
    ) -> tuple[dict[str, np.ndarray], dict[str, Any], str]:
        """Newest checkpoint that verifies, walking the ring backwards.

        Returns ``(arrays, meta, path)``; a corrupt (or unreadable)
        newest entry falls back to the next-older one — the whole point
        of keeping a ring.  Raises :class:`CheckpointNotFoundError` when
        nothing in the ring verifies.
        """
        errors: list[str] = []
        for path in reversed(self.list_checkpoints()):
            try:
                arrays, meta = self.load(path)
                return arrays, meta, path
            except CheckpointCorruptionError as exc:
                errors.append(f"{os.path.basename(path)}: {exc}")
        detail = f" ({'; '.join(errors)})" if errors else ""
        raise CheckpointNotFoundError(
            f"no loadable checkpoint in {self.directory}{detail}"
        )

    def _count(self, which: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"resilience.checkpoint.{which}").inc()
