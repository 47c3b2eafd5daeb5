"""Campaign job model: job specs, sweep expansion, canonical results.

A campaign is a set of *jobs*, each a named workload run for a fixed
number of steps under a :class:`~repro.core.config.SimulationConfig`
derived from JSON overrides plus a seed.  Jobs are content-addressed:
:meth:`JobSpec.digest` hashes the workload, step count, and the
*resolved* configuration (via ``SimulationConfig.stable_hash``, minus
the durability knobs), so two override dicts that resolve to the same
configuration share one cache entry, and any meaningful change produces
a different one.

The stored artifact is the *canonical result document* — the strictly
deterministic subset of a run's outputs (solve iterations, divergence
norms, SHA-256 digests of the final fields).  Wall times, allocator
peaks, and other environment-dependent measurements are deliberately
excluded: the document must be bitwise-reproducible so cache hits can be
validated against fresh runs and serial sweeps against parallel ones.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.config import SimulationConfig
from repro.mesh.turbine import list_workloads
from repro.serialize import Config, as_int, as_str, stable_digest

#: Format tag of the canonical per-job result document.
RESULT_FORMAT = "repro.campaign.result/1"

#: Format tag of a campaign sweep-spec document.
SPEC_FORMAT = "repro.campaign.spec/1"


def merge_overrides(*layers: dict) -> dict:
    """Deep-merge override dicts, later layers winning per leaf key."""
    out: dict = {}
    for layer in layers:
        for key, value in layer.items():
            if (
                isinstance(value, dict)
                and isinstance(out.get(key), dict)
            ):
                out[key] = merge_overrides(out[key], value)
            else:
                out[key] = value
    return out


def set_path(overrides: dict, path: str, value: Any) -> dict:
    """Nested override dict for one dotted field path.

    ``set_path({}, "momentum_solver.tol", 1e-7)`` returns
    ``{"momentum_solver": {"tol": 1e-7}}``.
    """
    keys = path.split(".")
    node = out = dict(overrides)
    for key in keys[:-1]:
        node[key] = dict(node.get(key, {}))
        node = node[key]
    node[keys[-1]] = value
    return out


@dataclass
class JobSpec(Config):
    """One campaign job: workload + step count + seed + config overrides.

    Attributes:
        workload: registered workload name (``repro.mesh.list_workloads``).
        steps: time steps to advance.
        seed: ``SimulationConfig.world_seed`` of the run (the overrides
            may not set ``world_seed`` themselves — the seed field is the
            single source).
        overrides: JSON-shaped ``SimulationConfig`` overrides, validated
            strictly by ``SimulationConfig.from_dict`` (absent fields
            take the dataclass defaults).
    """

    workload: str
    steps: int = field(default=1, metadata={"ge": 1})
    seed: int = 0
    overrides: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Raise on unknown workloads / invalid step counts / bad overrides."""
        super().validate()
        known = [name for name, _desc in list_workloads()]
        if self.workload not in known:
            raise ValueError(
                f"unknown workload {self.workload!r}; known: {known}"
            )
        if "world_seed" in self.overrides:
            raise ValueError(
                "overrides may not set world_seed; use JobSpec.seed"
            )
        self.build_config()  # strict from_dict + config.validate()

    def build_config(self) -> SimulationConfig:
        """The resolved simulation configuration of this job."""
        return SimulationConfig.from_dict(
            {**self.overrides, "world_seed": self.seed}
        )

    def digest(self) -> str:
        """Content address of the job (the result-cache key).

        Hashes the workload, step count, and the resolved configuration
        minus the durability knobs (checkpoint placement never changes
        computed results, so it must not fragment the cache).
        """
        return stable_digest(
            {
                "format": "repro.campaign.job/1",
                "workload": self.workload,
                "steps": self.steps,
                "config": self.build_config().stable_hash(
                    exclude=SimulationConfig.DURABILITY_KEYS
                ),
            }
        )

    @property
    def job_id(self) -> str:
        """Short stable identifier (digest prefix) used in paths/tables."""
        return self.digest()[:12]


@dataclass
class CampaignSpec:
    """A sweep specification (the ``repro.campaign.spec/1`` document).

    Jobs are the cartesian product of the ``list`` entries (default: one
    empty entry), the ``grid`` axes (dotted field paths, each with its
    value list), and ``seeds`` — every combination deep-merged over
    ``base``.  Expansion order is deterministic: list entries in given
    order, grid axes in sorted path order with values in given order,
    seeds in given order.
    """

    name: str
    workload: str
    steps: int = 1
    seeds: tuple[int, ...] = (0,)
    base: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    list_entries: tuple[dict, ...] = ()
    #: Per-job durable checkpointing cadence (0 disables); enables
    #: mid-job resume of interrupted campaigns.
    checkpoint_every: int = 0
    checkpoint_keep: int = 2
    #: Cross-job AssemblyPlan sharing (see ``repro.assembly.plan
    #: .PlanCache``); off forces every job to cold-capture its plans.
    share_setup: bool = True

    def expand(self) -> list[JobSpec]:
        """The sweep's jobs, in deterministic order, all validated."""
        axes = sorted(self.grid)
        combos = list(
            itertools.product(*(self.grid[axis] for axis in axes))
        )
        entries = list(self.list_entries) or [{}]
        jobs: list[JobSpec] = []
        for entry in entries:
            for combo in combos:
                sweep: dict = {}
                for axis, value in zip(axes, combo):
                    sweep = set_path(sweep, axis, value)
                for seed in self.seeds:
                    jobs.append(
                        JobSpec(
                            workload=self.workload,
                            steps=self.steps,
                            seed=seed,
                            overrides=merge_overrides(
                                self.base, entry, sweep
                            ),
                        )
                    )
        seen: dict[str, JobSpec] = {}
        for job in jobs:
            job.validate()
            digest = job.digest()
            if digest in seen:
                raise ValueError(
                    f"sweep produces duplicate job {job.job_id} "
                    f"({job.workload}, seed {job.seed}): two combinations "
                    "resolve to the same configuration"
                )
            seen[digest] = job
        return jobs

    def to_dict(self) -> dict:
        """JSON-shaped round-trip form (the spec-file content)."""
        return {
            "format": SPEC_FORMAT,
            "name": self.name,
            "workload": self.workload,
            "steps": self.steps,
            "seeds": list(self.seeds),
            "base": self.base,
            "sweep": {
                "grid": self.grid,
                "list": list(self.list_entries),
            },
            "checkpoint_every": self.checkpoint_every,
            "checkpoint_keep": self.checkpoint_keep,
            "share_setup": self.share_setup,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """Parse and validate a spec document (strict keys)."""
        if not isinstance(data, dict):
            raise ValueError("campaign spec must be a JSON object")
        allowed = {
            "format",
            "name",
            "workload",
            "steps",
            "seeds",
            "base",
            "sweep",
            "checkpoint_every",
            "checkpoint_keep",
            "share_setup",
        }
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ValueError(
                f"campaign spec: unknown keys {unknown}; "
                f"accepted: {sorted(allowed)}"
            )
        fmt = data.get("format", SPEC_FORMAT)
        if fmt != SPEC_FORMAT:
            raise ValueError(
                f"campaign spec: unsupported format {fmt!r} "
                f"(expected {SPEC_FORMAT!r})"
            )
        for key in ("name", "workload"):
            if key not in data:
                raise ValueError(f"campaign spec: missing required {key!r}")
        sweep = data.get("sweep", {})
        if not isinstance(sweep, dict) or set(sweep) - {"grid", "list"}:
            raise ValueError(
                "campaign spec: 'sweep' must be a mapping with only "
                "'grid' and/or 'list' keys"
            )
        grid = sweep.get("grid", {})
        if not isinstance(grid, dict) or not all(
            isinstance(v, list) and v for v in grid.values()
        ):
            raise ValueError(
                "campaign spec: sweep.grid maps field paths to non-empty "
                "value lists"
            )
        entries = sweep.get("list", [])
        if not isinstance(entries, list) or not all(
            isinstance(e, dict) for e in entries
        ):
            raise ValueError(
                "campaign spec: sweep.list must be a list of override "
                "mappings"
            )
        seeds = data.get("seeds", [0])
        if not isinstance(seeds, list) or not seeds:
            raise ValueError("campaign spec: seeds must be a non-empty list")
        base = data.get("base", {})
        if not isinstance(base, dict):
            raise ValueError("campaign spec: base must be a mapping")
        spec = cls(
            name=as_str(data["name"], "campaign.name"),
            workload=as_str(data["workload"], "campaign.workload"),
            steps=as_int(data.get("steps", 1), "campaign.steps"),
            seeds=tuple(
                as_int(s, f"campaign.seeds[{i}]")
                for i, s in enumerate(seeds)
            ),
            base=base,
            grid=grid,
            list_entries=tuple(entries),
            checkpoint_every=as_int(
                data.get("checkpoint_every", 0), "campaign.checkpoint_every"
            ),
            checkpoint_keep=as_int(
                data.get("checkpoint_keep", 2), "campaign.checkpoint_keep"
            ),
            share_setup=bool(data.get("share_setup", True)),
        )
        if spec.checkpoint_every < 0:
            raise ValueError("campaign spec: checkpoint_every must be >= 0")
        if spec.checkpoint_keep < 1:
            raise ValueError("campaign spec: checkpoint_keep must be >= 1")
        return spec


def field_digest(arr: np.ndarray) -> str:
    """SHA-256 of a field array's canonical (contiguous float64) bytes."""
    a = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    return hashlib.sha256(a.tobytes()).hexdigest()


def canonical_result(sim, report, job: JobSpec) -> dict:
    """The deterministic result document of one completed job.

    Contains only bitwise-reproducible outputs: per-equation solve
    iteration counts, divergence norms, and SHA-256 digests of the final
    solution fields.  Wall times and allocator statistics are excluded
    by design — identical jobs must produce byte-identical documents on
    any machine, at any worker count, fresh or cache-served.

    The ``state`` section depends only on the final simulation state, so
    it is also what a resumed job (which re-runs only the remaining
    steps, and therefore records fewer solves) is compared against.
    """
    fields = {
        "velocity": field_digest(sim.velocity),
        "pressure": field_digest(sim.pressure_field),
        "scalar": field_digest(sim.scalar_field),
        "mdot": field_digest(sim.mdot),
    }
    return {
        "format": RESULT_FORMAT,
        "job": job.to_dict(),
        "digest": job.digest(),
        "workload": report.workload,
        "total_nodes": report.total_nodes,
        "solve_iterations": {
            name: [int(i) for i in its]
            for name, its in sorted(report.solve_iterations.items())
        },
        "state": {
            "step_index": int(sim.step_index),
            "divergence_norms": [float(v) for v in sim.divergence_norms],
            "fields": fields,
        },
    }
