"""The golden registry: each canonical run declared once and run once, and
every file under ``tests/data`` a projection of the records they produce.

Every record is computed in-process: the runs of :data:`RUNS` (field
digests, the ``ops``/``traffic`` ledger, step snapshots), the overset
connectivity, the multilevel partition, the transport schedules, the
serialised configs and the fake-clock span forest.  None depends on the
BLAS thread count (``tests/test_partition_stability.py`` checks the
partition and a run at one and two threads).  :class:`Records` computes
each on first use and keeps it; tier-1 shares one instance through the
``records`` session fixture (``tests/conftest.py``), and each golden test
compares ``produce(name, records)`` with ``declared(name)``.

Regenerate every golden, from the repo root, with

    PYTHONPATH=src python -m tests.goldens

It rewrites each file in :func:`canonical` bytes and prints an old -> new
table per key that moved; a change that moves numbers on purpose pastes
that table into CHANGES.md.  Pytest stays the check.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from repro import NaluWindSimulation, SimulationConfig
from repro.amg.hierarchy import AMGOptions
from repro.campaign import CampaignSpec, JobSpec, field_digest
from repro.comm import CommRetriesExhaustedError, SimWorld
from repro.core.composite import CompositeMesh, partition_nodes
from repro.core.config import FaultSpec, SolverConfig
from repro.core.operators import boundary_mass_flux, mass_flux
from repro.core.physics import PressurePoissonSystem
from repro.mesh import make_workload
from repro.obs import Span
from repro.overset import OversetAssembler
from repro.perf.cost import snapshots_to_json
from repro.resilience import FaultInjector
from repro.resilience.policy import RecoveryPolicy
from repro.serialize import canonical_json

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data")
FIELDS = ("velocity", "pressure_field", "scalar_field", "mdot")

#: The ``low_r4_altpaths`` benchmark overrides: every non-default path.
ALTPATHS = {
    "assembly_variant": "general",
    "reuse_assembly_plan": False,
    "partition_method": "rcb",
    "sgs_inner": 1,
    "precond_rebuild_every": 4,
    "amg_refresh": True,
    "momentum_solver": {"overlap": True},
    "scalar_solver": {"overlap": True},
    "pressure_solver": {"tol": 1e-6, "max_iters": 300, "overlap": True},
}
TINY_R2_ONE_PICARD = {"nranks": 2, "picard_iterations": 1}


@dataclass(frozen=True)
class Run:
    """One canonical simulation run: ``workload`` under the
    ``SimulationConfig.from_dict`` ``overrides`` for ``steps`` steps, with
    a checkpoint every ``checkpoint_every`` steps; ``restart`` also runs a
    cold restart from the ring to the same step, recorded as
    ``<label>_restart``."""

    workload: str
    overrides: dict
    steps: int
    checkpoint_every: int = 0
    restart: bool = False

    def config(self, ring: str) -> dict:
        """The run's overrides, checkpoints written to ``ring``."""
        if not self.checkpoint_every:
            return dict(self.overrides)
        return {
            **self.overrides,
            "checkpoint_every": self.checkpoint_every,
            "checkpoint_dir": ring,
        }

    def restart_config(self, ring: str) -> dict:
        """The cold restart's overrides: read ``ring``, write nothing."""
        return {
            **self.overrides,
            "checkpoint_every": 0,
            "checkpoint_dir": ring,
            "restart_from": ring,
        }


#: label -> run.  Every run executes once, in :func:`runs_record`.
RUNS = {
    "tiny_r2_steps3": Run("turbine_tiny", {"nranks": 2}, 3),
    "tiny_r2_steps20": Run("turbine_tiny", TINY_R2_ONE_PICARD, 20),
    "tiny_r2_ckpt8": Run(
        "turbine_tiny", TINY_R2_ONE_PICARD, 20, checkpoint_every=8,
        restart=True,
    ),
    "tiny_r3_altpaths": Run("turbine_tiny", {"nranks": 3, **ALTPATHS}, 2),
    "tiny_r3_default": Run("turbine_tiny", {"nranks": 3}, 2),
    "tiny_r3_paper_cadence": Run(
        "turbine_tiny", {"nranks": 3, "precond_rebuild_every": 1}, 2
    ),
    "low_r12_default": Run("turbine_low", {"nranks": 12}, 2),
    "low_r4_altpaths": Run("turbine_low", {"nranks": 4, **ALTPATHS}, 2),
}
#: The cross-thread check's run: the benchmark's operating point for one
#: step.  No golden pins it.
THREAD_RUN = Run("turbine_low", {"nranks": 12}, 1)
#: Overset connectivity: these workloads after 0, 1 and 2 calls of
#: ``advance_rotor(ROTOR_DT)``.
CONNECTIVITY_WORKLOADS = ("turbine_tiny", "turbine_low", "turbine_dual")
ROTOR_STEPS = 2
ROTOR_DT = 0.37
#: Multilevel partition: workload -> rank counts.
PARTITIONS = {
    "turbine_tiny": (2, 3),
    "turbine_low": (4, 6, 12, 24),
    "turbine_dual": (12,),
}


# -- records of a simulation run ---------------------------------------------


def _sha_json(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _sha_arrays(*arrays, typed=True) -> str:
    """sha256 of the arrays' bytes, each after its dtype and shape if
    ``typed``."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        if typed:
            h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def ledger_digests(world) -> dict:
    """sha256 of the ``ops`` and ``traffic`` state, rows order-free."""

    def canonical_rows(state: dict) -> dict:
        return {k: sorted(map(repr, rows)) for k, rows in state.items()}

    return {
        "ops": _sha_json(canonical_rows(world.ops.state_dict())),
        "traffic": _sha_json(canonical_rows(world.traffic.state_dict())),
    }


def ledger_tallies(world) -> dict:
    """Every count both modeled-clock sinks hold: each ``(phase, kernel)``
    tally, each phase's traffic and each rank's ``peak_alloc``; floats as
    ``float.hex()`` so the comparison is bit for bit."""
    ops, traffic = world.ops, world.traffic
    kernels = {}
    for ph in ops.phases():
        for k in ops.kernels(ph):
            t = ops.kernel_tally(ph, k)
            kernels[f"{ph}|{k}"] = [
                float(t.flops).hex(), float(t.bytes).hex(), t.launches
            ]
    comm = {
        ph: {
            "messages": traffic.message_count(ph),
            "bytes": traffic.message_bytes(ph),
            "max_rank_messages": traffic.max_rank_messages(ph),
            "max_rank_bytes": traffic.max_rank_bytes(ph),
            "collectives": traffic.collective_count(ph),
            "collective_bytes": traffic.collective_bytes(ph),
        }
        for ph in traffic.phases()
    }
    peak = [float(ops.peak_alloc(r)).hex() for r in range(world.size)]
    return {"kernels": kernels, "traffic": comm, "peak_alloc": peak}


def run_record(sim) -> dict:
    """What a golden may pin of a finished run."""
    return {
        "fields": {n: field_digest(getattr(sim, n)) for n in FIELDS},
        "ledgers": ledger_digests(sim.world),
        "snapshots": _sha_json(snapshots_to_json(sim.step_snapshots)),
        "tallies": ledger_tallies(sim.world),
    }


def connectivity_record() -> dict:
    """Per workload and rotor position, the sha256 of the overset statuses
    and of every donor set's mesh pair, receptors, donors and weights."""
    out = {}
    for name in CONNECTIVITY_WORKLOADS:
        system = make_workload(name)
        asm = OversetAssembler(system.meshes)
        rows = []
        for i in range(ROTOR_STEPS + 1):
            if i:
                system.advance_rotor(ROTOR_DT)
            conn = asm.assemble()
            rows.append({
                "statuses": _sha_arrays(*conn.statuses),
                "donor_sets": [
                    _sha_arrays(
                        np.array([ds.receptor_mesh, ds.donor_mesh]),
                        ds.receptors, ds.donors, ds.weights,
                    )
                    for ds in conn.donor_sets
                ],
            })
        out[name] = rows
    return out


def partition_record() -> dict:
    """sha256 of ``partition_nodes(comp, "parmetis", n)`` as ``int64``."""
    out = {}
    for workload, ranks in PARTITIONS.items():
        comp = CompositeMesh(SimWorld(1), make_workload(workload))
        for nranks in ranks:
            parts = partition_nodes(comp, "parmetis", nranks)
            out[f"{workload}@{nranks}"] = _sha_arrays(
                parts.astype(np.int64, copy=False), typed=False
            )
    return out


def execute(label, run) -> dict:
    """``run``'s record as ``label``, and its restart's as
    ``<label>_restart``."""
    out = {}
    with tempfile.TemporaryDirectory() as ring:
        docs = {label: run.config(ring)}
        if run.restart:
            docs[f"{label}_restart"] = run.restart_config(ring)
        for key, doc in docs.items():
            sim = NaluWindSimulation(
                run.workload, SimulationConfig.from_dict(doc)
            )
            sim.run(run.steps)
            out[key] = run_record(sim)
            del sim
    return out


def runs_record() -> dict:
    """Every run of :data:`RUNS`, executed once, keyed by label."""
    out = {}
    for label, run in RUNS.items():
        out.update(execute(label, run))
    return out


# -- records of the comm, config and span layers ----------------------------

# Posting order of the pattern is src-major over all 12 ordered pairs,
# receive order dst-major: posting index i is received at position
# [3, 6, 9, 0, 7, 10, 1, 4, 11, 2, 5, 8][i].  ``at`` counts the
# opportunities a spec sees (one per post or re-post, minus those an
# earlier spec fired on); the first round posts opportunities 0-11.
#: name -> (fault specs, retry budget, the ``overlap`` flag of each matvec).
SCHEDULES = {
    "drop": ((FaultSpec("message_drop", at=3),), 2, (False, True, False)),
    "corrupt": ((FaultSpec("message_corrupt", at=13),), 2, (False, True)),
    "duplicate": ((FaultSpec("message_duplicate", at=5),), 2, (True, False)),
    "corrupt_entries3": (
        (FaultSpec("message_corrupt", at=2, entries=3),), 2, (False, True)
    ),
    "drop_hits_repost": (
        (FaultSpec("message_corrupt", at=1), FaultSpec("message_drop", at=12)),
        2, (True, False),
    ),
    "drop_and_corrupt_one_round": (
        (FaultSpec("message_drop", at=2), FaultSpec("message_corrupt", at=5)),
        2, (False, True),
    ),
    "exhaust_r0": (
        (FaultSpec("message_drop", at=7), FaultSpec("message_duplicate", at=3),
         FaultSpec("message_duplicate", at=9)),
        0, (False,),
    ),
    "exhaust_r2": (
        (FaultSpec("message_drop", at=3), FaultSpec("message_drop", at=11),
         FaultSpec("message_drop", at=11), FaultSpec("message_corrupt", at=7)),
        2, (True,),
    ),
}


def assemble_pressure(nranks, workload="turbine_tiny", **overrides):
    """The assembled pressure-Poisson system of a turbine mesh in a uniform
    stream, partitioned as ``SimulationConfig(nranks, **overrides)`` says:
    ``(world, A, rhs)``."""
    cfg = SimulationConfig(nranks=nranks, **overrides)
    w = SimWorld(cfg.nranks)
    comp = CompositeMesh(w, make_workload(workload), cfg.partition_method)
    u = np.tile([8.0, 0, 0], (comp.n, 1))
    A, rhs = PressurePoissonSystem(comp, cfg).assemble(
        mdot=mass_flux(comp, u, cfg.density),
        pressure_correction_bc=np.zeros(comp.n),
        boundary_flux=boundary_mass_flux(comp, u, cfg.density),
    )
    return w, A, rhs


def _comm_counters(world) -> dict:
    """Total of every ``comm.*`` counter, summed over labels."""
    totals = {}
    for key, value in world.metrics.as_dict()["counters"].items():
        name = key.split("{")[0]
        if name.startswith("comm."):
            totals[name] = totals.get(name, 0.0) + value
    return totals


def transport_snapshot(world, A, rhs, name) -> dict:
    """What one schedule leaves on every sink, as deltas on ``world``: the
    injector's ``fired`` records, each ``comm.*`` counter, the traffic
    log's message count, the ``p2p`` hub events, and the result bytes or
    the escalated error (then also the purge and the next clean round)."""
    specs, retries, modes = SCHEDULES[name]
    x = A.new_vector(rhs.data.copy())
    world.purge_pending()  # fresh channel sequence numbers
    world.comm_max_retries = retries
    before = _comm_counters(world)
    sent = world.traffic.message_count()
    events = []
    off = world.hub.subscribe(
        "exchange", lambda kind, **_kw: events.append(kind)
    )
    injector = world.fault_injector = FaultInjector(
        specs, seed=sum(map(ord, name))
    )
    out = {}
    try:
        with world.phase_scope(f"golden/{name}"):
            results = [A.matvec(x, overlap=o).data.copy() for o in modes]
        out["result_sha256"] = _sha_arrays(*results, typed=False)
    except CommRetriesExhaustedError as err:
        out["error"] = {
            "src": err.src,
            "dst": err.dst,
            "attempts": err.attempts,
            "last_error": err.last_error,
        }
        out["purged"] = world.purge_pending("golden")
        world.fault_injector = None
        out["after_purge_sha256"] = _sha_arrays(A.matvec(x).data, typed=False)
    finally:
        world.fault_injector = None
        off()
    out["fired"] = injector.fired
    after = _comm_counters(world)
    out["counters"] = {
        k: after[k] - before.get(k, 0.0)
        for k in sorted(after)
        if after[k] != before.get(k, 0.0)
    }
    out["messages"] = world.traffic.message_count() - sent
    out["p2p_events"] = events.count("p2p")
    world.comm_max_retries = 2
    world.purge_pending()
    return out


def transport_record() -> dict:
    """Every schedule, in name order, on one ``turbine_tiny`` pressure
    operator at 4 ranks (12 halo messages per round), partitioned by RCB,
    so a change to the multilevel partitioner leaves the pinned bytes
    alone."""
    operator = assemble_pressure(4, partition_method="rcb")
    return {name: transport_snapshot(*operator, name)
            for name in sorted(SCHEDULES)}


#: Config-golden entries that are not canonical runs: (mesh, steps,
#: ``from_dict`` overrides).
OTHER_CONFIGS = {
    "default": ("turbine_tiny", 1, {}),
    "faults_recovery_amg": (
        "turbine_tiny", 3,
        {
            "nranks": 3,
            "inflow_velocity": [7, 0.5, 0.0],
            "faults": [
                {"kind": "matrix_corrupt", "at": 2, "equation": "pressure",
                 "mode": "scale", "magnitude": 1e6, "entries": 3},
                {"kind": "worker_crash", "at": 1, "point": "ckpt",
                 "job": "abc"},
            ],
            "fault_seed": 11,
            "recovery": {
                "ladder": ["expand_krylov", "rebuild_precond"],
                "retry_scale": 3, "rollback": False, "dt_backoff": 0.25,
                "max_step_retries": 1, "comm_max_retries": 4,
            },
            "amg": {
                "theta": 0.5, "interp": "direct", "agg_levels": 0,
                "smoother": "l1_jacobi", "smoother_symmetric": True,
                "seed": 7,
            },
            "profile": True,
            "profile_machine": "eagle-cpu",
        },
    ),
}


def _config_entry(workload, steps, overrides) -> dict:
    """What the config golden pins of one resolved configuration."""
    cfg = SimulationConfig.from_dict(overrides)
    job = JobSpec(workload=workload, steps=steps, seed=0, overrides=overrides)
    return {
        "to_dict": canonical_json(cfg.to_dict()),
        "ordered": json.dumps(cfg.to_dict()),
        "stable_hash": cfg.stable_hash(),
        "stable_hash_no_durability": cfg.stable_hash(
            exclude=SimulationConfig.DURABILITY_KEYS
        ),
        "job": json.dumps(job.to_dict()),
        "digest": job.digest(),
    }


def config_record() -> dict:
    """Every serialised form the campaign cache and the checkpoint header
    depend on: the benchmark workloads' runs as ``benchmarks/e2e/
    workloads.py`` builds them at seed 0 (ring ``"ring"``), two more
    configurations, the picard sweep and the nested classes' defaults."""
    motion = RUNS["tiny_r2_ckpt8"]
    bench = {
        "low_r12_default": RUNS["low_r12_default"],
        "tiny_r2_motion": motion,
        "low_r4_altpaths": RUNS["low_r4_altpaths"],
    }
    doc = {
        name: _config_entry(*case) for name, case in OTHER_CONFIGS.items()
    }
    for name, run in bench.items():
        doc[name] = _config_entry(run.workload, run.steps, run.config("ring"))
    doc["tiny_r2_motion_restart"] = _config_entry(
        motion.workload, motion.steps, motion.restart_config("ring")
    )
    sweep = CampaignSpec(
        name="picard_sweep", workload="turbine_tiny", steps=2,
        seeds=(0, 1, 2), base={"nranks": 2},
        grid={"picard_iterations": [2, 3]},
    )
    doc["campaign_tiny_sweep"] = [
        {
            "job": json.dumps(job.to_dict()),
            "digest": job.digest(),
            "config": canonical_json(job.build_config().to_dict()),
        }
        for job in sweep.expand()
    ]
    for name, obj in (
        ("SolverConfig", SolverConfig()),
        ("AMGOptions", AMGOptions()),
        ("RecoveryPolicy", RecoveryPolicy()),
        ("FaultSpec", FaultSpec(kind="io_fail")),
    ):
        doc[name] = {
            "to_dict": canonical_json(obj.to_dict()),
            "ordered": json.dumps(obj.to_dict()),
        }
    doc["SolverConfig"]["stable_hash"] = SolverConfig().stable_hash()
    return doc


def phase_boundary_record() -> dict:
    """Span forest (``[depth, name, attrs, start, duration]`` rows),
    ``phases`` and ``wall_times`` of ``turbine_tiny`` at 2 ranks x 2 steps
    under a clock that ticks 1.0 per read."""
    clock = functools.partial(next, itertools.count(1.0))
    report = NaluWindSimulation(
        "turbine_tiny", SimulationConfig(nranks=2, clock=clock)
    ).run(2)
    t = report.telemetry
    return {
        "spans": [
            [depth, s.name, s.attrs, s.start, s.duration]
            for root in t.spans
            for depth, s in Span.from_dict(root).walk()
        ],
        "phases": t.phases,
        "wall_times": report.wall_times,
    }


#: record name -> the function that computes it.
RECORDS = {
    "runs": runs_record,
    "thread_run": lambda: execute("thread_run", THREAD_RUN)["thread_run"],
    "transport": transport_record,
    "config": config_record,
    "phase_boundary": phase_boundary_record,
    "connectivity": connectivity_record,
    "partition": partition_record,
}


class Records(dict):
    """Every record a golden projects, each computed on first use by its
    :data:`RECORDS` function.  A computation that failed is not tried
    again: later reads raise from its error."""

    def __missing__(self, key):
        failed = self.get(("failed", key))
        if failed:
            raise RuntimeError(f"{key} failed earlier") from failed
        try:
            self[key] = RECORDS[key]()  # KeyError for an unknown key
        except Exception as err:
            self[("failed", key)] = err
            raise
        return self[key]


# -- the goldens: projections of the records --------------------------------


def _part(records, part, *labels, **renamed) -> dict:
    """``part`` of each run's record, keyed by its label or, for
    ``renamed``, by the golden's own key."""
    keys = {**{label: label for label in labels}, **renamed}
    return {k: records["runs"][label][part] for k, label in keys.items()}


LOW = ("low_r12_default", "low_r4_altpaths")
#: golden file -> its document, projected from the records.
GOLDENS = {
    "config_golden.json": lambda r: r["config"],
    "connectivity_golden.json": lambda r: {
        "connectivity": r["connectivity"],
        "fields": _part(
            r, "fields", "tiny_r3_altpaths", tiny_r2_default="tiny_r2_steps3"
        ),
    },
    "ledger_golden.json": lambda r: _part(
        r, "tallies", default="tiny_r3_default",
        paper_cadence="tiny_r3_paper_cadence",
        low_r4_altpaths="tiny_r3_altpaths",
    ),
    "lifetime_golden.json": lambda r: {
        "fields": _part(
            r, "fields", "tiny_r2_steps20", "tiny_r3_altpaths", *LOW
        ),
        "ledgers": _part(r, "ledgers", *LOW),
    },
    "memory_golden.json": lambda r: {
        label: {
            p: r["runs"][label][p] for p in ("fields", "ledgers", "snapshots")
        }
        for label in ("tiny_r2_ckpt8", "tiny_r2_ckpt8_restart", *LOW)
    },
    "partition_golden.json": lambda r: r["partition"],
    "phase_boundary_golden.json": lambda r: {
        k: r["phase_boundary"][k] for k in ("spans", "phases")
    },
    "transport_golden.json": lambda r: r["transport"],
}


def produce(name: str, records: Records) -> dict:
    """The document the records give golden file ``name``."""
    return GOLDENS[name](records)


def declared(name: str) -> dict:
    """The document golden file ``name`` holds."""
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return json.load(fh)


def canonical(doc) -> str:
    """The one byte form of a golden file."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def flatten(doc, path=()) -> dict:
    """Key path -> value of every leaf of a JSON document; a list item's
    path part is its index."""
    if isinstance(doc, list) and doc:
        doc = {str(i): item for i, item in enumerate(doc)}
    if not (isinstance(doc, dict) and doc):
        return {path: doc}
    out = {}
    for key, value in doc.items():
        out.update(flatten(value, (*path, key)))
    return out


def diff_rows(old, new) -> list[tuple[str, str, str]]:
    """``(key, old, new)`` of every leaf that moved, appeared or went."""
    a, b = flatten(old), flatten(new)

    def show(doc, key):
        return json.dumps(doc[key], sort_keys=True) if key in doc else "-"

    return [
        ("/".join(k), show(a, k), show(b, k))
        for k in sorted(a.keys() | b.keys())
        if show(a, k) != show(b, k)
    ]


def main() -> None:
    records = Records()
    for name in sorted(GOLDENS):
        path = os.path.join(DATA, name)
        new = produce(name, records)
        old = declared(name) if os.path.exists(path) else {}
        rows = diff_rows(old, new)
        print(f"{name}: {len(rows)} of {len(flatten(new))} keys moved")
        if rows:
            print("| key | old | new |\n|---|---|---|")
            for key, a, b in rows:
                print(f"| `{key}` | `{a}` | `{b}` |")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical(new))


if __name__ == "__main__":
    main()
