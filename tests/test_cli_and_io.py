"""Tests for the CLI (`python -m repro`)."""

import argparse
import re

import pytest

from repro.__main__ import _sim_config, build_parser, main
from repro.assembly.global_assembly import VARIANTS as ASSEMBLY_VARIANTS
from repro.partition import PARTITION_METHODS


class TestCLI:
    def test_run_command_tiny(self, capsys):
        rc = main(
            [
                "run",
                "--workload", "turbine_tiny",
                "--steps", "1",
                "--ranks", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "NLI time/step" in out
        assert "mass residual" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_subcommands_are_what_figures_gates_and_workloads_run(self):
        assert sorted(subcommands()) == [
            "analyze", "campaign", "run", "trace"
        ]


#: The flags of the two simulation-running subcommands, as ``--help``
#: listed them before they shared ``_add_sim_flags``.
SIM_FLAGS = {"--help", "--steps", "--ranks", "--partition", "--assembly",
             "--output", "--format", "--list"}
HELP_FLAGS = {
    "run": SIM_FLAGS | {
        "--workload", "--machine", "--config", "--checkpoint-every",
        "--checkpoint-dir", "--checkpoint-keep", "--restart-from", "--overlap",
    },
    "trace": SIM_FLAGS | {"--max-depth", "--machine"},
}


def subcommands():
    return next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ).choices


def subparser(command):
    return subcommands()[command]


class TestSharedSimulationFlags:
    @pytest.mark.parametrize("command", sorted(HELP_FLAGS))
    def test_help_lists_the_same_flags(self, command):
        text = subparser(command).format_help()
        assert set(re.findall(r"--[a-z][a-z-]*", text)) == HELP_FLAGS[command]

    def test_same_flags_build_equal_configs(self):
        flags = ["--ranks", "3", "--partition", "rcb", "--assembly", "general"]
        docs = [
            _sim_config(build_parser().parse_args([command, *flags])).to_dict()
            for command in ("run", "trace")
        ]
        assert docs[0] == docs[1]
        assert (docs[0]["nranks"], docs[0]["partition_method"],
                docs[0]["assembly_variant"]) == (3, "rcb", "general")

    def test_subcommand_defaults_stay_apart(self):
        parse = build_parser().parse_args
        assert [(parse([c]).steps, parse([c]).ranks)
                for c in ("run", "trace")] == [(2, None), (1, 2)]
        assert _sim_config(parse(["trace"])).nranks == 2

    @pytest.mark.parametrize("command", ["run", "trace"])
    def test_choices_are_the_owners_tuples(self, command):
        actions = subparser(command)._option_string_actions
        assert actions["--partition"].choices is PARTITION_METHODS
        assert actions["--assembly"].choices is ASSEMBLY_VARIANTS

    @pytest.mark.parametrize(
        "flag, owner",
        [
            ("--partition", PARTITION_METHODS),
            ("--assembly", ASSEMBLY_VARIANTS),
        ],
    )
    def test_out_of_range_choice_is_a_usage_error(self, flag, owner, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", flag, "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert all(repr(value) in err for value in owner)
