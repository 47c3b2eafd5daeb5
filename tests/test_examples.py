"""Smoke tests: every example script runs end to end."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name: str, argv: list[str]) -> None:
    old_argv = sys.argv
    sys.argv = [name] + argv
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart(capsys):
    _run("quickstart.py", [])
    out = capsys.readouterr().out
    assert "simulated NLI time/step" in out


def test_partitioning_study(capsys):
    _run("partitioning_study.py", ["4"])
    out = capsys.readouterr().out
    assert "RCB" in out and "multilevel" in out


def test_assembly_pipeline_tour(capsys):
    _run("assembly_pipeline_tour.py", [])
    out = capsys.readouterr().out
    assert "Global assembly" in out
    for variant in ("optimized", "sparse_add", "general"):
        assert variant in out


def test_amg_solver_tour(capsys):
    _run("amg_solver_tour.py", [])
    out = capsys.readouterr().out
    assert "AMG(mm_ext)" in out
    assert "SGS2 only" in out


@pytest.mark.slow
def test_turbine_wake_study(capsys):
    _run("turbine_wake_study.py", ["1"])
    out = capsys.readouterr().out
    assert "Axial wake profile" in out
