"""The golden registry itself (``tests/goldens.py``): every file under
``tests/data`` is a declared projection, each projection produces exactly
the document its file declares, the registry's writer is the only writer,
and each canonical run executes once per session."""

import json
import os
from collections import Counter, defaultdict
from unittest import mock

import pytest

from tests import goldens
from tests.goldens import (
    DATA, GOLDENS, RUNS, Records, canonical, declared, diff_rows, produce,
)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_matches(records, name):
    """A declared key nothing produces, a produced key nothing declares
    and a moved value all fail here."""
    want, got = declared(name), produce(name, records)
    moved = diff_rows(want, got)
    assert got == want, f"{name}: (key, declared, produced) {moved[:5]}"


def test_every_data_file_is_a_registered_golden():
    files = sorted(f for f in os.listdir(DATA) if f.endswith(".json"))
    assert files == sorted(GOLDENS)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_file_is_in_canonical_bytes(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        text = fh.read()
    assert text == canonical(json.loads(text))


def test_each_canonical_run_executes_once(monkeypatch):
    """Every golden that pins a run, the ledger golden included, projects
    it from the one ``runs`` record."""
    executed = Counter()

    def fake_execute(label, run):
        executed[label] += 1
        keys = (label, f"{label}_restart") if run.restart else (label,)
        parts = ("fields", "ledgers", "snapshots", "tallies")
        return {key: dict.fromkeys(parts, key) for key in keys}

    monkeypatch.setattr(goldens, "execute", fake_execute)
    others = set(goldens.RECORDS) - {"runs"}
    records = Records(dict.fromkeys(others, defaultdict(dict)))
    for name in GOLDENS:
        produce(name, records)
    assert executed == dict.fromkeys(RUNS, 1)


def test_a_failed_record_is_not_computed_again(monkeypatch):
    fail = mock.Mock(side_effect=ValueError("boom"))
    monkeypatch.setitem(goldens.RECORDS, "config", fail)
    records = Records()
    with pytest.raises(ValueError, match="boom"):
        records["config"]
    with pytest.raises(RuntimeError, match="config failed earlier"):
        records["config"]
    assert fail.call_count == 1
    with pytest.raises(KeyError):
        records["no_such_record"]
