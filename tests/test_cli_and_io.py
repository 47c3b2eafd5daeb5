"""Tests for the CLI (`python -m repro`) and the VTK exporter."""

import argparse
import os
import re

import numpy as np
import pytest

from repro.__main__ import _sim_config, build_parser, main
from repro.assembly.global_assembly import VARIANTS as ASSEMBLY_VARIANTS
from repro.comm import SimWorld
from repro.core import CompositeMesh
from repro.krylov.api import KRYLOV_METHODS
from repro.mesh import make_turbine_tiny
from repro.mesh.vtk_io import write_composite_vtk, write_mesh_vtk, write_vtk
from repro.partition import PARTITION_METHODS


@pytest.fixture(scope="module")
def tiny_comp():
    return CompositeMesh(SimWorld(2), make_turbine_tiny())


class TestVTK:
    def test_write_basic_grid(self, tmp_path):
        coords = np.array(
            [
                [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
            ],
            dtype=float,
        )
        cells = np.arange(8, dtype=np.int64)[None, :]
        path = write_vtk(
            str(tmp_path / "box"),
            coords,
            cells,
            {"p": np.arange(8.0), "u": np.ones((8, 3))},
        )
        text = open(path).read()
        assert text.startswith("# vtk DataFile Version 3.0")
        assert "POINTS 8 double" in text
        assert "CELLS 1 9" in text
        assert "CELL_TYPES 1" in text
        assert "SCALARS p double 1" in text
        assert "VECTORS u double" in text

    def test_extension_appended(self, tmp_path):
        coords = np.zeros((8, 3))
        coords[1:] = np.eye(3).repeat(3, 0)[:7]
        cells = np.arange(8)[None, :]
        path = write_vtk(str(tmp_path / "noext"), coords, cells)
        assert path.endswith(".vtk")
        assert os.path.exists(path)

    def test_bad_field_shape_rejected(self, tmp_path):
        coords = np.zeros((8, 3))
        cells = np.arange(8)[None, :]
        with pytest.raises(ValueError):
            write_vtk(
                str(tmp_path / "bad"), coords, cells, {"f": np.zeros(5)}
            )

    def test_mesh_export(self, tmp_path, tiny_comp):
        mesh = tiny_comp.meshes[1]
        path = write_mesh_vtk(str(tmp_path / "blade"), mesh)
        text = open(path).read()
        assert f"POINTS {mesh.n_nodes} double" in text
        assert f"CELL_TYPES {mesh.cells.shape[0]}" in text

    def test_composite_export_slices_fields(self, tmp_path, tiny_comp):
        comp = tiny_comp
        paths = write_composite_vtk(
            str(tmp_path / "flow"),
            comp,
            {"pressure": np.arange(float(comp.n))},
        )
        assert len(paths) == len(comp.meshes)
        for p in paths:
            assert os.path.exists(p)
        # Status field always present.
        assert "overset_status" in open(paths[0]).read()


class TestCLI:
    def test_project_command(self, capsys):
        assert main(["project"]) == 0
        out = capsys.readouterr().out
        assert "full Summit" in out
        assert "4.06B" in out

    def test_run_command_tiny(self, capsys, tmp_path):
        rc = main(
            [
                "run",
                "--workload", "turbine_tiny",
                "--steps", "1",
                "--ranks", "2",
                "--vtk", str(tmp_path / "flow"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "NLI time/step" in out
        assert "mass residual" in out
        assert os.path.exists(str(tmp_path / "flow_background.vtk"))

    def test_scaling_command(self, capsys):
        rc = main(
            [
                "scaling",
                "--workload", "turbine_tiny",
                "--ranks", "2,4",
                "--steps", "1",
                "--machines", "summit-gpu,eagle-gpu",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "log-log slopes" in out

    def test_partition_command(self, capsys):
        rc = main(["partition", "--workload", "turbine_tiny", "--ranks", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RCB" in out and "multilevel" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


#: The flags of the three simulation-running subcommands, as ``--help``
#: listed them before they shared ``_add_sim_flags``.
SIM_FLAGS = {"--help", "--steps", "--ranks", "--partition", "--assembly",
             "--output", "--format", "--list"}
HELP_FLAGS = {
    "run": SIM_FLAGS | {
        "--workload", "--machine", "--config", "--vtk", "--checkpoint-every",
        "--checkpoint-dir", "--checkpoint-keep", "--restart-from",
        "--pressure-method", "--overlap",
    },
    "trace": SIM_FLAGS | {"--max-depth"},
    "profile": SIM_FLAGS | {"--machine"},
}


def subparser(command):
    subparsers = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return subparsers.choices[command]


class TestSharedSimulationFlags:
    @pytest.mark.parametrize("command", sorted(HELP_FLAGS))
    def test_help_lists_the_same_flags(self, command):
        text = subparser(command).format_help()
        assert set(re.findall(r"--[a-z][a-z-]*", text)) == HELP_FLAGS[command]

    def test_same_flags_build_equal_configs(self):
        flags = ["--ranks", "3", "--partition", "rcb", "--assembly", "general"]
        docs = [
            _sim_config(build_parser().parse_args([command, *flags])).to_dict()
            for command in ("run", "trace", "profile")
        ]
        assert docs[0] == docs[1] == docs[2]
        assert (docs[0]["nranks"], docs[0]["partition_method"],
                docs[0]["assembly_variant"]) == (3, "rcb", "general")

    def test_subcommand_defaults_stay_apart(self):
        parse = build_parser().parse_args
        assert [(parse([c]).steps, parse([c]).ranks)
                for c in ("run", "trace", "profile")] == [(2, None), (1, 2), (1, 4)]
        assert _sim_config(parse(["trace"])).nranks == 2
        assert _sim_config(parse(["profile"])).nranks == 4

    @pytest.mark.parametrize("command", ["run", "trace", "profile"])
    def test_choices_are_the_owners_tuples(self, command):
        actions = subparser(command)._option_string_actions
        assert actions["--partition"].choices is PARTITION_METHODS
        assert actions["--assembly"].choices is ASSEMBLY_VARIANTS
        if command == "run":
            assert actions["--pressure-method"].choices is KRYLOV_METHODS

    @pytest.mark.parametrize(
        "flag, owner",
        [
            ("--partition", PARTITION_METHODS),
            ("--assembly", ASSEMBLY_VARIANTS),
            ("--pressure-method", KRYLOV_METHODS),
        ],
    )
    def test_out_of_range_choice_is_a_usage_error(self, flag, owner, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", flag, "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert all(repr(value) in err for value in owner)
