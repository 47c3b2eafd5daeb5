"""The ``repro.profile/1`` document: one run's per-rank profile.

:class:`RunProfile` is the schema-stable JSON artifact
``python -m repro profile`` emits and
``benchmarks/check_profile_regression.py`` gates: per-rank time
accounting (compute / wait / transfer), per-phase load-imbalance and
comm-wait metrics, exchange statistics by kind, the cross-rank critical
path, and the roofline join (achieved vs model-predicted fractions per
kernel per phase).  The full segment lists stay on the
:class:`~repro.obs.timeline.TimelineProfiler` — the Chrome-trace
exporter reads them directly — so the document itself stays small
enough to diff.

:func:`collect_run_profile` builds the document from a finished
simulation by *pulling* from its (finalized) profiler, duck-typed like
:func:`repro.obs.telemetry.collect_run_telemetry`; this module imports
nothing from the rest of ``repro``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any

#: Version tag embedded in every exported profile document.  Bump only
#: on incompatible layout changes; the regression gate keys off it.
PROFILE_SCHEMA = "repro.profile/1"


@dataclass
class RunProfile:
    """One run's per-rank profile, JSON round-trippable.

    Attributes map 1:1 onto the exported document; see
    ``docs/observability.md`` for the full schema reference.
    """

    schema: str = PROFILE_SCHEMA
    workload: str = ""
    nranks: int = 0
    n_steps: int = 0
    total_nodes: int = 0
    #: Machine model that priced the timeline (``summit-gpu``, ...).
    machine: str = ""
    #: Simulated wall time: the latest rank's clock [s].
    wall_time_s: float = 0.0
    #: Per rank (string key): compute/wait/transfer/accounted seconds
    #: plus the segment count.
    ranks: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Per phase: compute max/mean/min over ranks, imbalance factor,
    #: straggler rank, and rank-seconds of wait/transfer + sync count
    #: (``collectives`` of which equal the TrafficLog's, per phase).
    phases: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Sync events by kind: count plus wait/transfer rank-seconds.
    exchanges: dict[str, Any] = field(default_factory=dict)
    #: ``{"total_s", "segments": [{"rank","phase","kind","duration_s"}]}``.
    critical_path: dict[str, Any] = field(default_factory=dict)
    #: Roofline join per phase: kernels with achieved-vs-model fractions
    #: (see :func:`repro.perf.roofline.roofline_join`).
    roofline: dict[str, Any] = field(default_factory=dict)
    #: Run-level totals and fractions (rank-seconds accounting).
    summary: dict[str, float] = field(default_factory=dict)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict document (JSON types only)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunProfile":
        """Inverse of :meth:`to_dict`; rejects unknown schemas."""
        schema = d.get("schema", "")
        if schema != PROFILE_SCHEMA:
            raise ValueError(
                f"unsupported profile schema {schema!r}; "
                f"expected {PROFILE_SCHEMA!r}"
            )
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in known})

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize to a JSON string (sorted keys: bitwise-stable)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunProfile":
        """Parse a document produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    # -- convenience queries -------------------------------------------------

    @property
    def comm_fraction(self) -> float:
        """Fraction of accounted rank-seconds spent waiting or transferring."""
        return float(self.summary.get("comm_fraction", 0.0))

    def rank_accounting_error(self) -> float:
        """Max over ranks of |accounted - wall| (the gated identity)."""
        return max(
            (
                abs(rt.get("accounted_s", 0.0) - self.wall_time_s)
                for rt in self.ranks.values()
            ),
            default=0.0,
        )

    # -- metrics publication -------------------------------------------------

    def publish_metrics(self, registry: Any) -> None:
        """Publish ``profile.*`` summary gauges into a MetricsRegistry.

        Pull-style and idempotent (gauges overwrite), like
        ``TrafficLog.publish_metrics``; runs before telemetry collection
        so the telemetry metrics snapshot carries the profile summary
        and the drift gate can pin it.
        """
        s = self.summary
        registry.gauge("profile.wall_s").set(self.wall_time_s)
        registry.gauge("profile.compute_s").set(s.get("compute_s", 0.0))
        registry.gauge("profile.wait_s").set(s.get("wait_s", 0.0))
        registry.gauge("profile.transfer_s").set(s.get("transfer_s", 0.0))
        registry.gauge("profile.comm_fraction").set(
            s.get("comm_fraction", 0.0)
        )
        registry.gauge("profile.wait_fraction").set(
            s.get("wait_fraction", 0.0)
        )
        registry.gauge("profile.syncs").set(s.get("syncs", 0.0))
        registry.gauge("profile.overlap_rounds").set(
            s.get("overlap_rounds", 0.0)
        )
        registry.gauge("profile.overlap_saved_wait_s").set(
            s.get("overlap_saved_wait_s", 0.0)
        )
        registry.gauge("profile.critical_path_s").set(
            float(self.critical_path.get("total_s", 0.0))
        )
        for label, ph in self.phases.items():
            registry.gauge("profile.phase_wait_s", phase=label).set(
                ph.get("wait_s", 0.0)
            )
            registry.gauge("profile.phase_imbalance", phase=label).set(
                ph.get("imbalance", 1.0)
            )


def collect_run_profile(sim: Any, roofline: dict[str, Any] | None = None) -> RunProfile:
    """Assemble a :class:`RunProfile` from a finished simulation.

    Args:
        sim: a simulation (duck-typed) whose ``world.profiler`` is a
            :class:`~repro.obs.timeline.TimelineProfiler`; finalized
            here if it is not already.
        roofline: optional pre-computed roofline join
            (:func:`repro.perf.roofline.roofline_join` output).
    """
    prof = sim.world.profiler
    if prof is None:
        raise ValueError("simulation has no profiler (config.profile is off)")
    prof.finalize()

    totals = prof.rank_totals()
    compute = sum(rt["compute_s"] for rt in totals)
    wait = sum(rt["wait_s"] for rt in totals)
    transfer = sum(rt["transfer_s"] for rt in totals)
    accounted = compute + wait + transfer

    cstats = prof.phase_compute_stats()
    comm = prof.phase_comm_stats()
    phases: dict[str, dict[str, float]] = {}
    for label in sorted(set(cstats) | set(comm)):
        c = cstats.get(label, {})
        x = comm.get(label, {})
        phases[label] = {
            "compute_max_s": c.get("max_s", 0.0),
            "compute_mean_s": c.get("mean_s", 0.0),
            "compute_min_s": c.get("min_s", 0.0),
            "imbalance": c.get("imbalance", 1.0),
            "straggler_rank": c.get("straggler_rank", 0.0),
            "wait_s": x.get("wait_s", 0.0),
            "transfer_s": x.get("transfer_s", 0.0),
            "syncs": x.get("syncs", 0.0),
            "collectives": x.get("collectives", 0.0),
        }

    path = prof.critical_path()
    machine = getattr(
        getattr(prof.pricer, "machine", None), "name", ""
    )
    return RunProfile(
        workload=sim.workload_name,
        nranks=prof.nranks,
        n_steps=len(sim.step_snapshots),
        total_nodes=int(sim.comp.n),
        machine=machine,
        wall_time_s=prof.wall_time,
        ranks={str(r): dict(rt) for r, rt in enumerate(totals)},
        phases=phases,
        exchanges={
            "syncs": float(prof.sync_count()),
            "by_kind": prof.exchange_stats(),
        },
        critical_path={
            "total_s": sum(seg["duration_s"] for seg in path),
            "segments": path,
        },
        roofline=dict(roofline or {}),
        summary={
            "compute_s": compute,
            "wait_s": wait,
            "transfer_s": transfer,
            "accounted_s": accounted,
            "comm_fraction": (
                (wait + transfer) / accounted if accounted > 0.0 else 0.0
            ),
            "wait_fraction": wait / accounted if accounted > 0.0 else 0.0,
            "syncs": float(prof.sync_count()),
            # Split halo rounds and the rank-seconds of wait the overlap
            # removed relative to synchronous exchanges (0 when every
            # exchange ran synchronously).
            "overlap_rounds": float(getattr(prof, "overlap_rounds", 0)),
            "overlap_saved_wait_s": float(
                getattr(prof, "overlap_saved_s", 0.0)
            ),
        },
    )


def render_profile_summary(profile: RunProfile, top: int = 8) -> str:
    """Human-readable quick look at one :class:`RunProfile`."""
    p = profile
    s = p.summary
    acc = s.get("accounted_s", 0.0)

    def frac(key: str) -> float:
        return 100.0 * s.get(key, 0.0) / acc if acc > 0.0 else 0.0

    lines = [
        f"profile: {p.workload} ({p.nranks} ranks, {p.n_steps} steps) "
        f"on {p.machine}"
    ]
    lines.append("=" * len(lines[0]))
    lines.append(
        f"wall {p.wall_time_s:.6f} s | rank-seconds: "
        f"compute {frac('compute_s'):.1f}%  wait {frac('wait_s'):.1f}%  "
        f"transfer {frac('transfer_s'):.1f}%  "
        f"(comm fraction {s.get('comm_fraction', 0.0):.3f})"
    )

    lines.append("rank   compute [s]      wait [s]  transfer [s]  segments")
    for r in range(p.nranks):
        rt = p.ranks.get(str(r), {})
        lines.append(
            f"  {r:<4d} {rt.get('compute_s', 0.0):11.6f} "
            f"{rt.get('wait_s', 0.0):13.6f} "
            f"{rt.get('transfer_s', 0.0):13.6f} "
            f"{int(rt.get('segments', 0)):9d}"
        )

    lines.append(
        "phase                                 mean [s]   imb  straggler"
        "   wait [s]  syncs"
    )
    for label in sorted(p.phases):
        ph = p.phases[label]
        lines.append(
            f"  {label:<34s} {ph['compute_mean_s']:9.6f} "
            f"{ph['imbalance']:5.2f} {int(ph['straggler_rank']):10d} "
            f"{ph['wait_s']:10.6f} {int(ph['syncs']):6d}"
        )

    segs = p.critical_path.get("segments", [])
    lines.append(
        f"critical path: {len(segs)} segments, "
        f"{p.critical_path.get('total_s', 0.0):.6f} s "
        f"(wall {p.wall_time_s:.6f} s)"
    )
    ranked = sorted(segs, key=lambda g: -g["duration_s"])[:top]
    for g in ranked:
        lines.append(
            f"  rank {g['rank']:<3d} {g['kind']:<9s} "
            f"{g['phase']:<30s} {g['duration_s']:.6f} s"
        )

    if p.roofline:
        lines.append("roofline (achieved fraction of machine roof, by phase):")
        for label in sorted(p.roofline):
            entry = p.roofline[label]
            kernels = entry.get("kernels", {})
            ks = ", ".join(
                f"{k}={v['achieved_bw_frac']:.2f}bw"
                if v["bound"] == "bandwidth"
                else (
                    f"{k}={v['achieved_flop_frac']:.2f}fl"
                    if v["bound"] == "flops"
                    else f"{k}=launch"
                )
                for k, v in sorted(kernels.items())
            )
            lines.append(
                f"  {label:<34s} coverage {entry.get('coverage', 0.0):5.2f}"
                f"  [{ks}]"
            )
    return "\n".join(lines)
