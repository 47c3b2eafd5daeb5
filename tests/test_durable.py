"""``repro.durable.atomic_write`` and its five callers: a commit that
fails part-way leaves the previous file byte-identical and no temp."""

import os

import numpy as np
import pytest

from repro.campaign import (
    RESULT_FORMAT,
    CampaignManifest,
    CampaignSpec,
    ResultStore,
    write_lease,
)
from repro.campaign.supervisor import _write_outcome, lease_path
from repro.durable import atomic_write
from repro.resilience.checkpoint import CheckpointManager, CheckpointWriteError


def commit_checkpoint(root, version):
    mgr = CheckpointManager(root, max_io_retries=0)
    return mgr.save(3, {"u": np.full(4, float(version))}, {"v": version})


def commit_result(root, version):
    doc = {"format": RESULT_FORMAT, "digest": "abc", "x": version}
    return ResultStore(root).put("abc", doc)


def commit_manifest(root, version):
    spec = CampaignSpec(name=f"v{version}", workload="turbine_tiny")
    manifest = CampaignManifest(root, spec)
    manifest.save()
    return manifest.path


def commit_lease(root, version):
    write_lease(root, f"nonce-{version}", beat=version)
    return lease_path(root)


def commit_outcome(root, version):
    path = os.path.join(root, "outcome-000.json")
    _write_outcome(path, {"ok": True, "v": version})
    return path


COMMITS = [
    commit_checkpoint,
    commit_result,
    commit_manifest,
    commit_lease,
    commit_outcome,
]


def test_creates_parent_dirs_and_replaces(tmp_path):
    path = str(tmp_path / "a" / "b" / "f.bin")
    atomic_write(path, b"one")
    atomic_write(path, b"two", tmp_suffix=".tmp")
    with open(path, "rb") as fh:
        assert fh.read() == b"two"
    assert os.listdir(os.path.dirname(path)) == ["f.bin"]


@pytest.mark.parametrize("broken", ["fsync", "replace"])
@pytest.mark.parametrize("commit", COMMITS, ids=lambda f: f.__name__)
def test_failed_commit_keeps_old_bytes_and_leaves_no_temp(
    tmp_path, monkeypatch, commit, broken
):
    root = str(tmp_path / "d")
    path = commit(root, 1)
    with open(path, "rb") as fh:
        before = fh.read()

    def boom(*_args, **_kw):
        raise OSError(f"injected {broken} failure")

    monkeypatch.setattr(os, broken, boom)
    with pytest.raises((OSError, CheckpointWriteError)):
        commit(root, 2)
    monkeypatch.undo()

    with open(path, "rb") as fh:
        assert fh.read() == before
    assert not [n for n in os.listdir(os.path.dirname(path)) if ".tmp" in n]
    commit(root, 2)  # and the next commit goes through
    with open(path, "rb") as fh:
        assert fh.read() != before
