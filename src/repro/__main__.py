"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — run a simulation workload and report solver statistics;
  any option beyond the shared flags comes from ``--config FILE``.
* ``trace`` — run a workload under the per-rank timeline profiler
  (priced on ``--machine``) and emit the machine-readable
  :class:`~repro.obs.telemetry.RunTelemetry` JSON document with its
  ``profile`` section, the human-readable span-tree / flat views, or a
  Chrome trace-event file (loadable in Perfetto / ``chrome://tracing``).
* ``campaign`` — run (or resume) a sweep of jobs through the campaign
  service: content-addressed result cache, durable manifest, and the
  supervisor protocol (inline or in forked worker fault domains) with
  retry/backoff, hang detection, and poison-job quarantine (see
  ``docs/campaign.md``).  Rank sweeps are campaigns; their priced
  strong-scaling curves are the ``benchmarks/bench_fig*`` tables.
* ``analyze`` — repro-lint (RL001-RL010) over the source tree (see
  ``docs/static_analysis.md``).

Conventions shared by every subcommand: ``-o/--output`` writes the
result to a file instead of stdout, ``--format`` picks the rendering
(``table`` for humans, ``json`` for machines, plus command-specific
formats), and ``--list`` on workload-taking commands prints the workload
registry.  Progress/status chatter goes to stderr so ``--format json``
output stays parseable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from repro.serialize import schema

#: Exit-code contract, shown in ``--help``.
EXIT_CODES = """\
exit codes:
  0  success
  1  runtime failure (solver failure, campaign spec/coordinator error,
     bad input file)
  2  usage error (unknown command, flag, or workload)
  3  campaign finished but quarantined jobs that ran out of attempts
"""


class _ListWorkloadsAction(argparse.Action):
    """``--list``: print the workload registry table and exit 0."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        from repro.harness import format_table
        from repro.mesh import list_workloads

        print(
            format_table(
                "registered workloads",
                ["name", "description"],
                [[name, desc] for name, desc in list_workloads()],
            )
        )
        parser.exit(0)


def _add_list_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--list",
        action=_ListWorkloadsAction,
        help="print the registered workloads and exit",
    )


def _add_output_flags(
    parser: argparse.ArgumentParser,
    formats: list[str],
    default_format: str,
) -> None:
    """The shared ``-o/--output`` + ``--format`` conventions."""
    parser.add_argument(
        "--format",
        default=default_format,
        choices=formats,
        help=f"output rendering (default: {default_format})",
    )
    parser.add_argument(
        "--output",
        "-o",
        default="",
        help="write to this path instead of stdout",
    )


def _deliver(args: argparse.Namespace, text: str, what: str) -> None:
    """Honor ``-o/--output``: write to the file (its directory created)
    or print to stdout."""
    if args.output:
        os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {what} to {args.output}", file=sys.stderr)
    else:
        print(text)


def _choices(name: str):
    """Allowed values of one ``SimulationConfig`` option: the owning
    module's tuple, read off the field."""
    from repro import SimulationConfig

    return next(o.choices for o in schema(SimulationConfig) if o.name == name)


def _add_sim_flags(
    parser: argparse.ArgumentParser,
    steps: int,
    ranks: int | None,
    ranks_help: str | None = None,
) -> None:
    """The flags ``run`` and ``trace`` share, with the subcommand's own
    defaults (``None`` keeps the config's value)."""
    parser.add_argument("--steps", type=int, default=steps)
    parser.add_argument("--ranks", type=int, default=ranks, help=ranks_help)
    parser.add_argument("--partition", choices=_choices("partition_method"))
    parser.add_argument("--assembly", choices=_choices("assembly_variant"))


def _sim_config(args: argparse.Namespace, cfg=None):
    """``cfg`` (default: a fresh ``SimulationConfig``) with the shared
    flags that were given applied over it."""
    from repro import SimulationConfig

    cfg = cfg or SimulationConfig()
    for attr, value in (
        ("nranks", args.ranks),
        ("partition_method", args.partition),
        ("assembly_variant", args.assembly),
    ):
        if value is not None:
            setattr(cfg, attr, value)
    return cfg


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise RuntimeError(f"unreadable {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise RuntimeError(f"{what} {path} must be a JSON object")
    return doc


def _cmd_run(args: argparse.Namespace) -> int:
    from repro import NaluWindSimulation, SimulationConfig
    from repro.harness import nli_step_times
    from repro.perf import get_machine

    if args.config:
        cfg = SimulationConfig.from_dict(
            _load_json(args.config, "config file")
        )
    else:
        cfg = SimulationConfig()
        cfg.nranks = 6  # run's historical default rank count
    # Explicit CLI flags override the config file.
    _sim_config(args, cfg)
    for attr, value in (
        ("checkpoint_every", args.checkpoint_every),
        ("checkpoint_dir", args.checkpoint_dir),
        ("checkpoint_keep", args.checkpoint_keep),
        ("restart_from", args.restart_from),
    ):
        if value is not None:
            setattr(cfg, attr, value)
    if args.overlap:
        # Communication-avoiding schedule for every solver SpMV.
        cfg.momentum_solver.overlap = True
        cfg.scalar_solver.overlap = True
        cfg.pressure_solver.overlap = True
    cfg.validate()
    sim = NaluWindSimulation(args.workload, cfg)
    if args.format == "table":
        print(
            f"{args.workload}: {sim.comp.n} DoFs, "
            f"{len(sim.comp.meshes)} meshes, {cfg.nranks} ranks"
        )
        if cfg.restart_from:
            print(
                f"  restarted from {cfg.restart_from} "
                f"at step {sim.step_index}"
            )
    report = sim.run(args.steps)
    machine = get_machine(args.machine)
    times = nli_step_times(report, machine)
    if args.format == "json":
        doc = {
            "format": "repro.run/1",
            "workload": args.workload,
            "total_nodes": report.total_nodes,
            "n_steps": report.n_steps,
            "config": cfg.to_dict(),
            "solve_iterations": report.solve_iterations,
            "divergence_norms": report.divergence_norms,
            "nli": {
                "machine": machine.name,
                "mean_s": float(times.mean()),
                "std_s": float(times.std()),
            },
        }
        _deliver(args, json.dumps(doc, indent=2, sort_keys=True), "run report")
    else:
        lines = []
        for eq, its in report.solve_iterations.items():
            lines.append(
                f"  {eq:10s} mean iters {np.mean(its):6.2f} "
                f"over {len(its)} solves"
            )
        lines.append(f"  mass residual: {report.divergence_norms[-1]:.2e}")
        lines.append(
            f"  NLI time/step on {machine.name} (paper-scale): "
            f"{times.mean():.3f} +- {times.std():.3f} s"
        )
        _deliver(args, "\n".join(lines), "run report")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import NaluWindSimulation
    from repro.obs import (
        render_flat_report,
        render_profile_summary,
        render_span_tree,
        to_chrome_trace,
    )

    cfg = _sim_config(args)
    cfg.profile = True
    cfg.profile_machine = args.machine
    sim = NaluWindSimulation(args.workload, cfg)
    telemetry = sim.run(args.steps).telemetry
    if args.format == "json":
        text = telemetry.to_json()
    elif args.format == "tree":
        text = render_span_tree(telemetry, max_depth=args.max_depth)
    elif args.format == "chrome":
        text = json.dumps(
            to_chrome_trace(sim.world.profiler, workload=sim.workload_name),
            sort_keys=True,
        )
    else:
        text = (
            render_flat_report(telemetry)
            + "\n\n"
            + render_profile_summary(telemetry)
        )
    _deliver(args, text, f"{args.format} telemetry")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import (
        Campaign,
        CampaignSpec,
        SupervisorPolicy,
        merge_overrides,
    )
    from repro.harness import format_table
    from repro.obs.hooks import ObserverHub

    hub = ObserverHub()
    progress = {"total": 0, "finished": 0}

    def on_start(name: str = "", total: int = 0, workers: int = 0, **_kw):
        progress["total"] = total
        print(
            f"campaign {name}: {total} jobs, "
            + (f"{workers} workers" if workers else "inline"),
            file=sys.stderr,
        )

    def on_job(job_id: str = "", status: str = "", **kw):
        if status in ("cached", "done", "quarantined"):
            progress["finished"] += 1
        line = (
            f"  [{progress['finished']}/{progress['total']}] "
            f"{job_id} {status}"
        )
        if kw.get("attempt"):
            line += f" (attempt {kw['attempt']})"
        if kw.get("taxonomy"):
            line += f" [{kw['taxonomy']}]"
        if kw.get("wall_s") is not None:
            line += f" ({kw['wall_s']:.2f}s)"
        if kw.get("error"):
            line += f": {kw['error']}"
        print(line, file=sys.stderr)

    hub.subscribe("campaign_start", on_start)
    hub.subscribe("campaign_job", on_job)

    policy = SupervisorPolicy(
        max_attempts=args.max_attempts,
        job_timeout_s=args.job_timeout,
        heartbeat_timeout_s=args.heartbeat,
    )

    try:
        store_dir = args.store or None
        if os.path.isdir(args.spec):
            camp = Campaign.resume(
                args.spec,
                workers=args.workers,
                hub=hub,
                store_dir=store_dir,
                policy=policy,
            )
        else:
            spec = CampaignSpec.from_dict(
                _load_json(args.spec, "campaign spec")
            )
            if args.config:
                spec.base = merge_overrides(
                    spec.base, _load_json(args.config, "config file")
                )
            root = args.dir or os.path.join("campaigns", spec.name)
            camp = Campaign(
                spec,
                root,
                workers=args.workers,
                hub=hub,
                store_dir=store_dir,
                policy=policy,
            )
        summary = camp.run(max_jobs=args.max_jobs, dry_run=args.dry_run)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 1

    if args.format == "json":
        text = json.dumps(summary, indent=2, sort_keys=True)
    elif summary.get("dry_run"):
        text = format_table(
            f"campaign plan: {summary['name']}",
            ["job", "workload", "steps", "seed", "status", "cached",
             "overrides"],
            [
                [r["job_id"], r["workload"], r["steps"], r["seed"],
                 r["status"], "yes" if r["cached"] else "no",
                 json.dumps(r["overrides"], sort_keys=True)]
                for r in summary["jobs"]
            ],
            note="dry run: nothing executed",
        )
    else:
        counts = summary["status_counts"]
        note = (
            f"done {counts['done']}/{summary['total_jobs']}, "
            f"quarantined {counts['quarantined']}, "
            f"cache hits {summary['cache_hits']}, "
            f"retries {summary['retries']}, "
            f"requeues {summary['requeues']}"
        )
        text = format_table(
            f"campaign: {summary['name']}",
            ["job", "status", "attempts", "cached", "wall [s]", "result"],
            [
                [
                    digest[:12],
                    entry["status"],
                    entry.get("attempts", "-"),
                    "yes" if entry.get("cached") else "no",
                    (
                        f"{entry['wall_s']:.2f}"
                        if entry.get("wall_s") is not None
                        else "-"
                    ),
                    entry.get("result", entry.get("error", "-")),
                ]
                for digest, entry in summary["jobs"].items()
            ],
            note=note,
        )
    _deliver(args, text, "campaign summary")
    if summary.get("status_counts", {}).get("quarantined"):
        # All non-poison jobs finished; quarantined entries carry their
        # failure context in the manifest.
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser, every subcommand attached."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SC'21 exascale-prep CFD reproduction",
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run",
        help="run a simulation workload",
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_run.add_argument("--workload", default="turbine_tiny")
    _add_sim_flags(
        p_run, steps=2, ranks=None,
        ranks_help="rank count (default 6, or the --config file's nranks)",
    )
    p_run.add_argument("--machine", default="summit-gpu")
    p_run.add_argument(
        "--config", default="", metavar="FILE",
        help="load a SimulationConfig JSON document (explicit CLI flags "
             "still override it)",
    )
    p_run.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="write a durable checkpoint every N steps (0 = off)",
    )
    p_run.add_argument(
        "--checkpoint-dir", default=None,
        help="checkpoint retention-ring directory",
    )
    p_run.add_argument(
        "--checkpoint-keep", type=int, default=None,
        help="checkpoints kept in the retention ring",
    )
    p_run.add_argument(
        "--restart-from", default=None, metavar="PATH",
        help="resume from a checkpoint file or ring directory "
             "(--steps then counts from t=0)",
    )
    p_run.add_argument(
        "--overlap", action="store_true", default=None,
        help="split solver SpMV halo exchanges: apply the diag block "
             "while boundary data is in flight (bitwise-identical "
             "results, shorter halo waits)",
    )
    _add_output_flags(p_run, ["table", "json"], "table")
    _add_list_flag(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_tr = sub.add_parser(
        "trace",
        help="run a workload under the per-rank timeline profiler and "
             "emit its run telemetry",
    )
    p_tr.add_argument("workload", nargs="?", default="turbine_tiny")
    _add_sim_flags(p_tr, steps=1, ranks=2)
    p_tr.add_argument(
        "--machine", default="summit-gpu",
        help="machine model pricing the simulated rank clocks",
    )
    p_tr.add_argument(
        "--format", default="json", choices=["json", "tree", "flat", "chrome"],
        help="repro.telemetry/1 JSON, span tree, flat tables, or Chrome "
             "trace events (default: json)",
    )
    p_tr.add_argument(
        "--max-depth", type=int, default=-1,
        help="span-tree depth cap for --format tree (-1 = unlimited)",
    )
    p_tr.add_argument(
        "--output", "-o", default="",
        help="write to this path instead of stdout",
    )
    _add_list_flag(p_tr)
    p_tr.set_defaults(func=_cmd_trace)

    p_cp = sub.add_parser(
        "campaign",
        help="run or resume a job sweep through the campaign service",
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_cp.add_argument(
        "spec",
        help="a repro.campaign.spec/1 JSON file, or an existing campaign "
             "directory to resume",
    )
    p_cp.add_argument(
        "--dir", "-d", default="",
        help="campaign directory (default: campaigns/<spec name>)",
    )
    p_cp.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="forked worker processes, each a killable fault domain "
             "(0 = run jobs inline in this process, serially; cannot "
             "be combined with --job-timeout/--heartbeat)",
    )
    p_cp.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="execute at most N jobs this invocation (cache hits are "
             "free); the rest stay pending for a later resume",
    )
    p_cp.add_argument(
        "--dry-run", action="store_true",
        help="expand and print the job table without running anything",
    )
    p_cp.add_argument(
        "--store", default="", metavar="DIR",
        help="result-store directory (default: <campaign dir>/store); "
             "share one store across campaigns to reuse results",
    )
    p_cp.add_argument(
        "--config", default="", metavar="FILE",
        help="extra SimulationConfig overrides deep-merged over the "
             "spec's base",
    )
    p_cp.add_argument(
        "--max-attempts", type=int, default=1, metavar="N",
        help="executions per job before quarantine and exit code 3 "
             "(default 1 = never retry; only transient failures are "
             "retried, with backoff — deterministic failures quarantine "
             "immediately)",
    )
    p_cp.add_argument(
        "--job-timeout", type=float, default=0.0, metavar="SEC",
        help="wall-clock budget per job attempt; the worker is killed "
             "and the job requeued (0 = unlimited; needs --workers >= 1)",
    )
    p_cp.add_argument(
        "--heartbeat", type=float, default=0.0, metavar="SEC",
        help="kill an attempt whose per-step heartbeat has stalled "
             "this long (0 = disabled; needs --workers >= 1)",
    )
    _add_output_flags(p_cp, ["table", "json"], "table")
    _add_list_flag(p_cp)
    p_cp.set_defaults(func=_cmd_campaign)

    from repro.analysis.cli import add_analyze_parser

    add_analyze_parser(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "workload"):
        from repro.mesh import list_workloads

        known = [name for name, _desc in list_workloads()]
        if args.workload not in known:
            parser.error(
                f"unknown workload {args.workload!r}; known: "
                f"{', '.join(known)} (see --list)"
            )
    try:
        return args.func(args)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
