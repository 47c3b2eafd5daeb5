"""Tests for the campaign service: job specs, sweep expansion, the
content-addressed result store, the durable manifest, the runner
(cache-hit bitwise identity, resume-after-kill, setup sharing), and the
supervisor protocol on both executors (inline == fork, crash-at-every-
boundary fault domains, hang detection, lease takeover, quarantine,
failure breaker)."""

import collections
import functools
import json
import multiprocessing
import os

import pytest

from repro.__main__ import main
from repro.campaign import (
    Campaign,
    CampaignManifest,
    CampaignSpec,
    FailureBreaker,
    JobSpec,
    ManifestError,
    ResultStore,
    SupervisorPolicy,
    failure_context,
    lease_is_live,
    read_lease,
    write_lease,
)
from repro.campaign import merge_overrides, set_path
from repro.campaign.manifest import JOB_STATUSES, STATUS_FIELDS
from repro.campaign.supervisor import COUNTERS, TRANSITIONS
from repro.core.config import SimulationConfig
from repro.core.simulation import NaluWindSimulation
from repro.obs.hooks import ObserverHub
from repro.obs.metrics import MetricsRegistry
from repro.resilience import FaultInjector, FaultSpec, SolverFailure


def tiny_spec(name="t", seeds=(0, 1), steps=1, **kw):
    return CampaignSpec(
        name=name,
        workload="turbine_tiny",
        steps=steps,
        seeds=seeds,
        base={"nranks": 2},
        **kw,
    )


class TestOverrides:
    def test_merge_is_deep(self):
        merged = merge_overrides(
            {"amg": {"theta": 0.1}, "nranks": 2},
            {"amg": {"agg_levels": 1}},
        )
        assert merged == {
            "amg": {"theta": 0.1, "agg_levels": 1},
            "nranks": 2,
        }

    def test_merge_later_wins(self):
        assert merge_overrides({"dt": 0.1}, {"dt": 0.2}) == {"dt": 0.2}

    def test_set_path_nests(self):
        doc = set_path({}, "amg.theta", 0.5)
        doc = set_path(doc, "amg.interp", "direct")
        assert doc == {"amg": {"theta": 0.5, "interp": "direct"}}
        assert set_path({}, "dt", 0.1) == {"dt": 0.1}


class TestJobSpec:
    def test_digest_is_stable_and_content_addressed(self):
        a = JobSpec("turbine_tiny", steps=2, seed=1, overrides={"nranks": 2})
        b = JobSpec("turbine_tiny", steps=2, seed=1, overrides={"nranks": 2})
        c = JobSpec("turbine_tiny", steps=2, seed=2, overrides={"nranks": 2})
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        assert a.job_id == a.digest()[:12]

    def test_durability_keys_do_not_fragment_the_cache(self):
        a = JobSpec("turbine_tiny", overrides={"nranks": 2})
        b = JobSpec(
            "turbine_tiny",
            overrides={"nranks": 2, "checkpoint_every": 5,
                       "checkpoint_dir": "elsewhere"},
        )
        assert a.digest() == b.digest()

    def test_seed_maps_to_world_seed(self):
        job = JobSpec("turbine_tiny", seed=7, overrides={"nranks": 2})
        assert job.build_config().world_seed == 7

    def test_world_seed_override_rejected(self):
        with pytest.raises(ValueError):
            JobSpec("turbine_tiny", overrides={"world_seed": 3}).validate()

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            JobSpec("no_such_workload").validate()

    def test_round_trip(self):
        job = JobSpec("turbine_tiny", steps=3, seed=2,
                      overrides={"nranks": 2})
        again = JobSpec.from_dict(job.to_dict())
        assert again.digest() == job.digest()


class TestCampaignSpec:
    def test_expand_grid_times_seeds(self):
        spec = tiny_spec(
            seeds=(0, 1), grid={"picard_iterations": [1, 2], "dt": [0.1]}
        )
        jobs = spec.expand()
        assert len(jobs) == 4  # 2 grid points x 2 seeds
        assert len({j.digest() for j in jobs}) == 4

    def test_expand_list_entries(self):
        spec = tiny_spec(
            seeds=(0,),
            list_entries=({"dt": 0.1}, {"dt": 0.2}),
        )
        jobs = spec.expand()
        assert [j.build_config().dt for j in jobs] == [0.1, 0.2]

    def test_duplicate_jobs_rejected(self):
        spec = tiny_spec(seeds=(0, 0))
        with pytest.raises(ValueError, match="duplicate"):
            spec.expand()

    def test_round_trip(self):
        spec = tiny_spec(grid={"dt": [0.1, 0.2]})
        again = CampaignSpec.from_dict(spec.to_dict())
        assert [j.digest() for j in again.expand()] == [
            j.digest() for j in spec.expand()
        ]

    def test_unknown_spec_key_rejected(self):
        doc = tiny_spec().to_dict()
        doc["bogus"] = 1
        with pytest.raises(ValueError):
            CampaignSpec.from_dict(doc)


class TestResultStore:
    def doc(self, digest):
        from repro.campaign import RESULT_FORMAT

        return {"format": RESULT_FORMAT, "digest": digest, "x": 1}

    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("abc", self.doc("abc"))
        assert store.get("abc") == self.doc("abc")
        assert "abc" in store and len(store) == 1

    def test_corrupt_file_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        with open(store.path("abc"), "w") as fh:
            fh.write("{not json")
        assert store.get("abc") is None

    def test_digest_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("abc", self.doc("OTHER"))
        assert store.get("abc") is None


class TestManifest:
    def test_save_load_round_trip(self, tmp_path):
        spec = tiny_spec()
        m = CampaignManifest(str(tmp_path), spec)
        m.register(spec.expand())
        m.save()
        again = CampaignManifest.load(str(tmp_path))
        assert again.jobs.keys() == m.jobs.keys()
        assert again.status_counts()["pending"] == 2

    def test_mark_persists(self, tmp_path):
        spec = tiny_spec()
        m = CampaignManifest(str(tmp_path), spec)
        jobs = spec.expand()
        m.register(jobs)
        m.mark(jobs[0].digest(), "quarantined", error="boom")
        again = CampaignManifest.load(str(tmp_path))
        assert again.jobs[jobs[0].digest()]["status"] == "quarantined"
        assert again.jobs[jobs[0].digest()]["error"] == "boom"

    def test_mark_keeps_only_what_the_new_status_declares(self, tmp_path):
        m = CampaignManifest(str(tmp_path), tiny_spec())
        m.register(tiny_spec().expand())
        digest = next(iter(m.jobs))
        failure = {
            "ok": False, "attempt": 0, "taxonomy": "io_error",
            "error_type": "OSError", "error": "boom", "traceback": "tb",
            "wall_s": 0.5,
        }
        m.mark(digest, "pending", failure=failure)
        assert m.jobs[digest]["error"] == "boom"
        m.mark(digest, "running", lease={"pid": 1, "nonce": "n"})
        assert "error" not in m.jobs[digest]
        m.mark(digest, "done", cached=False, result="r", wall_s=1.0)
        (record,) = m.jobs[digest]["attempts"]
        assert "ok" not in record and record["taxonomy"] == "io_error"
        assert set(m.jobs[digest]) == {
            "status", "job", "attempts", *STATUS_FIELDS["done"]
        }
        with pytest.raises(ValueError, match="lease"):
            m.mark(digest, "done", lease={"pid": 1, "nonce": "n"})

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(ManifestError):
            CampaignManifest.load(str(tmp_path / "nope"))

    def test_bad_status_rejected(self, tmp_path):
        m = CampaignManifest(str(tmp_path), tiny_spec())
        m.register(tiny_spec().expand())
        with pytest.raises(ValueError):
            m.mark(next(iter(m.jobs)), "exploded")


@pytest.mark.slow
class TestCampaignRunner:
    def test_serial_run_and_cache_hit_bitwise_identity(self, tmp_path):
        spec = tiny_spec(name="bitwise")
        m1 = MetricsRegistry()
        camp1 = Campaign(spec, str(tmp_path / "a"), metrics=m1)
        s1 = camp1.run()
        assert s1["status_counts"]["done"] == 2
        assert s1["cache_hits"] == 0 and s1["jobs_run"] == 2

        # A fresh campaign sharing the store: 100% cache hits, nothing
        # executed.
        camp2 = Campaign(
            spec,
            str(tmp_path / "b"),
            store_dir=str(tmp_path / "a" / "store"),
        )
        s2 = camp2.run()
        assert s2["cache_hits"] == 2 and s2["jobs_run"] == 0
        assert s2["status_counts"]["done"] == 2

        # An independent fresh run produces byte-identical stored
        # documents (the cache returns results bitwise-identically).
        camp3 = Campaign(spec, str(tmp_path / "c"))
        camp3.run()
        for job in camp1.jobs:
            d = job.digest()
            b1 = camp1.store.get_bytes(d)
            assert b1 is not None
            assert b1 == camp3.store.get_bytes(d)

    def test_rerun_same_root_skips_done_jobs(self, tmp_path):
        spec = tiny_spec(name="rerun")
        root = str(tmp_path / "camp")
        Campaign(spec, root).run()
        s2 = Campaign(spec, root).run()
        # Done jobs skip via the manifest, not the cache.
        assert s2["jobs_run"] == 0 and s2["cache_hits"] == 0
        assert s2["status_counts"]["done"] == 2

    def test_max_jobs_budget_then_resume(self, tmp_path):
        spec = tiny_spec(name="budget")
        root = str(tmp_path / "camp")
        s1 = Campaign(spec, root).run(max_jobs=1)
        assert s1["jobs_run"] == 1
        assert s1["status_counts"]["done"] == 1
        assert s1["status_counts"]["pending"] == 1
        s2 = Campaign.resume(root).run()
        assert s2["jobs_run"] == 1  # only the deferred job executes
        assert s2["status_counts"]["done"] == 2

    def test_resume_after_kill_uses_checkpoint_ring(self, tmp_path):
        spec = tiny_spec(name="kill", seeds=(0,), steps=2,
                         checkpoint_every=1)
        root = str(tmp_path / "camp")
        camp = Campaign(spec, root)
        job = camp.jobs[0]
        digest = job.digest()

        # Simulate a mid-job kill: run only the first step with the
        # job's ring enabled, leave the manifest saying "running".
        config = job.build_config()
        config.checkpoint_every = 1
        config.checkpoint_keep = spec.checkpoint_keep
        config.checkpoint_dir = camp._ckpt_dir(job)
        NaluWindSimulation(job.workload, config).run(1)
        camp.manifest.register(camp.jobs)
        camp.manifest.mark(digest, "running")

        resumed = Campaign.resume(root)
        summary = resumed.run()
        assert summary["status_counts"]["done"] == 1
        assert summary["jobs_resumed"] == 1
        doc = resumed.store.get(digest)
        entry = summary["jobs"][digest]
        assert entry["status"] == "done"

        # The resumed job's final state matches an uninterrupted run
        # bitwise (field digests, divergence norms, step index).
        ref = Campaign(spec, str(tmp_path / "ref"))
        ref.run()
        ref_doc = ref.store.get(digest)
        assert doc["state"] == ref_doc["state"]

    def test_worker_pool_matches_serial_bitwise(self, tmp_path):
        spec = tiny_spec(name="pool")
        serial = Campaign(spec, str(tmp_path / "serial"))
        serial.run()
        parallel = Campaign(spec, str(tmp_path / "par"), workers=2)
        s = parallel.run()
        assert s["status_counts"]["done"] == 2
        for job in spec.expand():
            d = job.digest()
            assert serial.store.get_bytes(d) == parallel.store.get_bytes(d)

    def test_setup_sharing_across_jobs(self, tmp_path):
        # Two jobs with identical mesh topology (only the seed differs):
        # the second adopts the first's captured assembly plans.
        spec = tiny_spec(name="share")
        s = Campaign(spec, str(tmp_path / "camp")).run()
        assert s["plan_shared"] > 0

    def test_invalid_config_rejected_at_expand(self, tmp_path):
        spec = tiny_spec(name="fail", seeds=(0,))
        spec.base = merge_overrides(
            spec.base, {"picard_iterations": 0}
        )
        # One misspelt grid value: a spec error, not a quarantined job.
        sweep = tiny_spec(
            name="typo", seeds=(0,),
            grid={"amg.smoother": ["two_stage_gs", "bogus"]},
        )
        for bad in (spec, sweep):
            with pytest.raises(ValueError):
                bad.expand()
            with pytest.raises(ValueError):
                Campaign(bad, str(tmp_path / "camp"))
        assert not (tmp_path / "camp").exists()

    def test_dry_run_executes_nothing(self, tmp_path):
        spec = tiny_spec(name="dry")
        camp = Campaign(spec, str(tmp_path / "camp"))
        summary = camp.run(dry_run=True)
        assert summary["dry_run"] and summary["total_jobs"] == 2
        assert all(r["status"] == "pending" for r in summary["jobs"])
        assert len(camp.store) == 0


#: Overrides that make a job fail deterministically: a NaN injected
#: into a halo exchange with solver recovery off.
POISON = {
    "faults": [{"kind": "exchange_nan", "at": 40, "entries": 1}],
    "fault_seed": 7,
    "recovery": {"enabled": False},
}


def fast_policy(**kw):
    kw.setdefault("backoff_base_s", 0.01)
    kw.setdefault("backoff_max_s", 0.05)
    kw.setdefault("poll_s", 0.02)
    return SupervisorPolicy(**kw)


class TestSupervisorPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"poll_s": 0.0},
            {"job_timeout_s": -1.0},
            {"backoff_factor": 0.5},
            {"breaker_threshold": 0.0},
            {"breaker_window": 0},
            {"store_io_retries": -1},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorPolicy(**kwargs).validate()

    def test_backoff_is_deterministic_and_capped(self):
        p = SupervisorPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.3
        )
        assert [p.backoff(k) for k in range(4)] == [0.1, 0.2, 0.3, 0.3]


class TestExecutorChoice:
    """``workers`` picks the executor; what it cannot do fails loudly."""

    HANG = FaultInjector((FaultSpec(kind="worker_hang", at=0, point="run"),))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policy": SupervisorPolicy(job_timeout_s=5.0)},
            {"policy": SupervisorPolicy(heartbeat_timeout_s=5.0)},
            {"chaos": HANG},
        ],
        ids=["job_timeout", "heartbeat", "worker_fault_chaos"],
    )
    def test_inline_rejects_what_needs_a_process_to_kill(
        self, tmp_path, kwargs
    ):
        with pytest.raises(ValueError, match="workers=0"):
            Campaign(tiny_spec(), str(tmp_path / "c"), workers=0, **kwargs)
        Campaign(tiny_spec(), str(tmp_path / "c"), workers=1, **kwargs)

    def test_inline_accepts_store_io_chaos(self, tmp_path):
        chaos = FaultInjector((FaultSpec(kind="io_fail", at=0, entries=1),))
        Campaign(tiny_spec(), str(tmp_path / "c"), workers=0, chaos=chaos)

    def test_workers_without_fork_fail_at_construction(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(RuntimeError, match="workers=0"):
            Campaign(tiny_spec(), str(tmp_path / "c"), workers=1)
        Campaign(tiny_spec(), str(tmp_path / "c"), workers=0)


class TestFailureContext:
    def test_classifies_and_truncates(self):
        try:
            raise OSError("disk on fire")
        except OSError as exc:
            ctx = failure_context(exc)
        assert ctx["ok"] is False
        assert ctx["taxonomy"] == "io_error"
        assert ctx["error_type"] == "OSError"
        assert "disk on fire" in ctx["error"]
        assert "OSError" in ctx["traceback"]
        assert len(ctx["traceback"]) <= 2000

    def test_solver_failure_keeps_its_kind(self):
        ctx = failure_context(
            SolverFailure("diverged", kind="non_convergence")
        )
        assert ctx["taxonomy"] == "non_convergence"


class TestFailureBreaker:
    def test_trips_halves_and_recovers(self):
        br = FailureBreaker(
            8, window=4, min_events=4, threshold=0.5, cooldown=2
        )
        assert br.allowed == 8
        assert not br.record(True)
        assert not br.record(False)
        assert not br.record(True)
        # 4th outcome makes the window eligible; 2/4 failures >= 0.5.
        assert br.record(False)
        assert br.allowed == 4 and br.trips == 1
        # Two consecutive successes restore one halving step.
        br.record(True)
        assert br.allowed == 4
        br.record(True)
        assert br.allowed == 8

    def test_floor_is_one_and_needs_min_events(self):
        br = FailureBreaker(2, window=4, min_events=3, threshold=0.5)
        assert not br.record(False)
        assert not br.record(False)  # only 2 events < min_events
        assert br.record(False)
        assert br.allowed == 1
        # At the floor, further failures cannot trip again.
        assert not br.record(False)
        assert br.trips == 1


class TestLeases:
    def test_round_trip_and_liveness(self, tmp_path):
        job_dir = str(tmp_path / "job")
        write_lease(job_dir, "n-1", beat=3)
        lease = read_lease(job_dir)
        assert lease["pid"] == os.getpid()
        assert lease["nonce"] == "n-1" and lease["beat"] == 3
        assert lease_is_live(lease)  # our own pid is alive

    def test_dead_pid_is_stale(self, tmp_path):
        job_dir = str(tmp_path / "job")
        os.makedirs(job_dir)
        with open(os.path.join(job_dir, "lease.json"), "w") as fh:
            json.dump({"pid": 2**22 + 12345, "nonce": "x", "beat": 0}, fh)
        assert not lease_is_live(read_lease(job_dir))

    def test_torn_lease_reads_as_none(self, tmp_path):
        job_dir = str(tmp_path / "job")
        os.makedirs(job_dir)
        with open(os.path.join(job_dir, "lease.json"), "w") as fh:
            fh.write("{half a lease")
        assert read_lease(job_dir) is None
        assert not lease_is_live(None)


@pytest.mark.slow
class TestSupervisedRunner:
    @pytest.fixture(scope="class")
    def crash_reference(self, tmp_path_factory):
        """The undisturbed run every crash variant is compared with: one
        campaign for the class (a job's digest, hence its stored bytes,
        does not depend on the spec's name)."""
        spec = tiny_spec(
            name="crash_ref", seeds=(0,), steps=2, checkpoint_every=1
        )
        ref = Campaign(spec, str(tmp_path_factory.mktemp("crash_ref")))
        ref.run()
        b_ref = ref.store.get_bytes(spec.expand()[0].digest())
        assert b_ref is not None
        return b_ref

    @pytest.mark.parametrize(
        "point", ["spawn", "lease", "run", "ckpt", "store"]
    )
    def test_crash_at_every_boundary_bitwise(
        self, tmp_path, point, crash_reference
    ):
        # Kill the worker at each fault-domain boundary: before the
        # lease, right after it, mid-solve (first checkpoint event),
        # mid-checkpoint-write (between tmp write and atomic replace),
        # and after the solve but before the outcome report.  Every
        # variant must retry to completion with a result bitwise-equal
        # to an undisturbed run.
        spec = tiny_spec(
            name=f"crash_{point}", seeds=(0,), steps=2, checkpoint_every=1
        )
        job = spec.expand()[0]
        chaos = FaultInjector(
            (
                FaultSpec(
                    kind="worker_crash", at=0, point=point, job=job.job_id
                ),
            ),
            seed=3,
        )
        camp = Campaign(
            spec,
            str(tmp_path / "chaos"),
            workers=1,
            policy=fast_policy(),
            chaos=chaos,
        )
        s = camp.run()
        assert s["status_counts"]["done"] == 1
        assert s["retries"] == 1 and s["quarantined"] == 0
        assert chaos.exhausted()
        assert camp.store.get_bytes(job.digest()) == crash_reference

    def test_timeout_kills_and_requeues(self, tmp_path):
        # A worker hung before its first heartbeat is caught by the
        # attempt wall-clock budget, SIGKILLed, and the job requeued.
        spec = tiny_spec(name="hang", seeds=(0,), steps=1)
        job = spec.expand()[0]
        chaos = FaultInjector(
            (
                FaultSpec(
                    kind="worker_hang", at=0, point="spawn", job=job.job_id
                ),
            )
        )
        camp = Campaign(
            spec,
            str(tmp_path / "c"),
            workers=1,
            # Budget well above a clean attempt's wall time (a tiny job
            # runs ~2s): only the hung attempt may trip it.
            policy=fast_policy(job_timeout_s=8.0),
            chaos=chaos,
        )
        s = camp.run()
        assert s["status_counts"]["done"] == 1
        assert s["requeues"] == 1 and s["lease_expired"] == 1
        assert s["retries"] == 0
        entry = camp.manifest.jobs[job.digest()]
        assert entry["attempts"][0]["taxonomy"] == "job_timeout"

    def test_quarantine_after_max_attempts_keeps_context(self, tmp_path):
        spec = tiny_spec(name="poison", seeds=(0, 1))
        jobs = spec.expand()
        chaos = FaultInjector(
            (
                FaultSpec(
                    kind="worker_crash", at=0, point="spawn",
                    job=jobs[0].job_id,
                ),
                FaultSpec(
                    kind="worker_crash", at=1, point="lease",
                    job=jobs[0].job_id,
                ),
            )
        )
        camp = Campaign(
            spec,
            str(tmp_path / "c"),
            workers=1,
            policy=fast_policy(max_attempts=2),
            chaos=chaos,
        )
        s = camp.run()
        assert s["status_counts"] == {
            "pending": 0, "running": 0, "done": 1, "quarantined": 1,
        }
        assert s["retries"] == 1 and s["quarantined"] == 1
        entry = camp.manifest.jobs[jobs[0].digest()]
        assert entry["status"] == "quarantined"
        assert entry["taxonomy"] == "worker_crash"
        assert entry["error_type"] == "WorkerCrash"
        assert len(entry["attempts"]) == 2
        assert [a["attempt"] for a in entry["attempts"]] == [0, 1]
        # The summary surfaces the attempt count per job.
        assert s["jobs"][jobs[0].digest()]["attempts"] == 2
        # Resuming the campaign skips the quarantined job entirely.
        s2 = Campaign.resume(
            str(tmp_path / "c"), workers=1, policy=fast_policy()
        ).run()
        assert s2["jobs_run"] == 0
        assert s2["status_counts"]["quarantined"] == 1

    def test_deterministic_failure_is_not_retried(self, tmp_path):
        # Solver divergence with recovery off raises a SolverFailure
        # whose taxonomy is non-transient: no retry budget burned,
        # immediate quarantine with the traceback persisted.
        spec = tiny_spec(name="det", seeds=(0,), steps=2)
        spec.base = merge_overrides(spec.base, POISON)
        job = spec.expand()[0]
        camp = Campaign(
            spec,
            str(tmp_path / "c"),
            workers=1,
            policy=fast_policy(max_attempts=3),
        )
        s = camp.run()
        assert s["retries"] == 0 and s["quarantined"] == 1
        entry = camp.manifest.jobs[job.digest()]
        assert entry["taxonomy"].startswith("nonfinite")
        assert len(entry["attempts"]) == 1
        assert "SolverFailure" in entry["traceback"]

    def test_store_write_faults_absorbed_by_retries(self, tmp_path):
        spec = tiny_spec(name="storeio", seeds=(0,))
        job = spec.expand()[0]
        chaos = FaultInjector(
            (FaultSpec(kind="io_fail", at=0, entries=2, job=job.digest()),)
        )
        camp = Campaign(
            spec,
            str(tmp_path / "c"),
            workers=1,
            policy=fast_policy(store_io_retries=3),
            chaos=chaos,
        )
        s = camp.run()
        assert s["status_counts"]["done"] == 1
        assert s["store_retries"] == 2
        assert s["retries"] == 0 and s["quarantined"] == 0

    def test_store_write_fault_exhaustion_costs_the_attempt(self, tmp_path):
        # A window wider than the store retry budget classifies the
        # attempt io_error (transient), so the whole job retries — and
        # with max_attempts=1 it quarantines.
        spec = tiny_spec(name="storedead", seeds=(0,))
        job = spec.expand()[0]
        chaos = FaultInjector(
            (FaultSpec(kind="io_fail", at=0, entries=20, job=job.digest()),)
        )
        camp = Campaign(
            spec,
            str(tmp_path / "c"),
            workers=1,
            policy=fast_policy(max_attempts=1, store_io_retries=2),
            chaos=chaos,
        )
        s = camp.run()
        assert s["status_counts"]["quarantined"] == 1
        assert s["store_retries"] == 2
        entry = camp.manifest.jobs[job.digest()]
        assert entry["taxonomy"] == "io_error"

    def test_live_lease_is_not_taken_over(self, tmp_path):
        # A `running` manifest entry whose lease holder is alive (here:
        # this very process) must be left alone — the pre-lease runner
        # would have re-run it, double-executing a live job.
        spec = tiny_spec(name="lease", seeds=(0,))
        root = str(tmp_path / "c")
        camp = Campaign(spec, root)
        job = camp.jobs[0]
        camp.manifest.mark(job.digest(), "running")
        write_lease(camp._job_dir(job), "held-elsewhere")
        s = Campaign.resume(root).run()
        assert s["jobs_run"] == 0
        assert s["status_counts"]["running"] == 1
        assert s["lease_expired"] == 0

    def test_stale_lease_takeover_is_counted(self, tmp_path):
        spec = tiny_spec(name="stale", seeds=(0,))
        root = str(tmp_path / "c")
        camp = Campaign(spec, root)
        job = camp.jobs[0]
        camp.manifest.mark(job.digest(), "running")
        job_dir = camp._job_dir(job)
        os.makedirs(job_dir, exist_ok=True)
        with open(os.path.join(job_dir, "lease.json"), "w") as fh:
            json.dump({"pid": 2**22 + 54321, "nonce": "dead", "beat": 1}, fh)
        s = Campaign.resume(root).run()
        assert s["status_counts"]["done"] == 1
        assert s["lease_expired"] == 1

    def test_inline_matches_fork_bitwise_same_protocol(self, tmp_path):
        # One protocol, two executors: identical stored bytes, and the
        # same artefacts left behind (outcome file, attempts-free entry).
        spec = tiny_spec(name="par")
        inline = Campaign(spec, str(tmp_path / "inline"), workers=0)
        fork = Campaign(spec, str(tmp_path / "fork"), workers=2)
        for camp in (inline, fork):
            s = camp.run()
            assert s["status_counts"]["done"] == 2
            assert "supervised" not in s
            for job in camp.jobs:
                assert os.listdir(camp._job_dir(job)) == ["outcome-000.json"]
                entry = camp.manifest.jobs[job.digest()]
                assert "attempts" not in entry
                assert "attempts" not in s["jobs"][job.digest()]
        for job in spec.expand():
            d = job.digest()
            assert inline.store.get_bytes(d) is not None
            assert inline.store.get_bytes(d) == fork.store.get_bytes(d)

    def test_inline_retries_a_transient_failure(self, tmp_path):
        # Retry/backoff is protocol, not executor: a store fault window
        # wider than the in-attempt budget costs the inline attempt
        # (io_error, transient), and the job is re-run after backoff.
        spec = tiny_spec(name="inline_retry", seeds=(0,))
        job = spec.expand()[0]
        chaos = FaultInjector(
            (FaultSpec(kind="io_fail", at=0, entries=2, job=job.digest()),)
        )
        camp = Campaign(
            spec,
            str(tmp_path / "c"),
            policy=fast_policy(max_attempts=2, store_io_retries=1),
            chaos=chaos,
        )
        s = camp.run()
        assert s["status_counts"]["done"] == 1
        assert s["retries"] == 1 and s["store_retries"] == 1
        entry = camp.manifest.jobs[job.digest()]
        assert [a["taxonomy"] for a in entry["attempts"]] == ["io_error"]
        assert sorted(os.listdir(camp._job_dir(job))) == [
            "outcome-000.json", "outcome-001.json",
        ]

    def test_default_policy_quarantines_after_one_attempt(self, tmp_path):
        # policy=None is max_attempts=1 on the one path there is: a job
        # out of attempts is quarantined, inline too.
        spec = tiny_spec(name="det1", seeds=(0,), steps=2)
        spec.base = merge_overrides(spec.base, POISON)
        camp = Campaign(spec, str(tmp_path / "c"))
        s = camp.run()
        digest = camp.jobs[0].digest()
        assert s["status_counts"]["quarantined"] == 1
        assert s["retries"] == 0 and s["jobs_failed"] == 1
        assert s["jobs"][digest]["attempts"] == 1
        entry = camp.manifest.jobs[digest]
        assert entry["status"] == "quarantined"
        assert entry["taxonomy"].startswith("nonfinite")
        assert entry["error_type"] == "SolverFailure"
        assert "SolverFailure" in entry["traceback"]
        assert len(entry["traceback"]) <= 2000
        assert [a["attempt"] for a in entry["attempts"]] == [0]
    #: Scenario -> the ``campaign_job`` / ``lease_takeover`` rows it drives.
    LIFECYCLES = {
        "clean": ["running", "done"],
        "cached": ["cached"],
        "crash_then_done": ["running", "retry", "running", "done"],
        "quarantined": ["running", "retry", "running", "quarantined"],
        "takeover": ["takeover", "running", "done"],
        "inline_io_error": ["running", "retry", "running", "done"],
    }

    def scenario(self, name, tmp_path, hub=None):
        """A one-job campaign set up to walk ``LIFECYCLES[name]``."""
        spec = tiny_spec(name=name, seeds=(0,))
        job = spec.expand()[0]
        root = str(tmp_path / "c")

        def crash(at):
            return FaultSpec(
                kind="worker_crash", at=at, point="spawn", job=job.job_id
            )

        kwargs = {}
        if name == "cached":
            kwargs = {"store_dir": str(tmp_path / "store")}
            Campaign(spec, str(tmp_path / "first"), **kwargs).run()
        elif name == "crash_then_done":
            kwargs = dict(
                workers=1,
                policy=fast_policy(max_attempts=3),
                chaos=FaultInjector((crash(0),)),
            )
        elif name == "quarantined":
            kwargs = dict(
                workers=1,
                policy=fast_policy(max_attempts=2),
                chaos=FaultInjector((crash(0), crash(1))),
            )
        elif name == "takeover":
            dead = Campaign(spec, root)
            dead.manifest.mark(job.digest(), "running")
            os.makedirs(dead._job_dir(job))
            with open(
                os.path.join(dead._job_dir(job), "lease.json"), "w"
            ) as fh:
                json.dump({"pid": 2**22 + 999, "nonce": "dead", "beat": 1}, fh)
        elif name == "inline_io_error":
            kwargs = dict(
                policy=fast_policy(max_attempts=2, store_io_retries=1),
                chaos=FaultInjector(
                    (
                        FaultSpec(
                            kind="io_fail", at=0, entries=2, job=job.digest()
                        ),
                    )
                ),
            )
        return Campaign(spec, root, hub=hub, **kwargs)

    @pytest.mark.parametrize("name", ["crash_then_done", "inline_io_error"])
    def test_retried_then_finished_job_keeps_no_failed_attempt_state(
        self, tmp_path, name
    ):
        # A `done` entry is its result: not the error of the attempt that
        # failed before it, nor the lease of a worker that is gone.
        camp = self.scenario(name, tmp_path)
        s = camp.run()
        (digest,) = camp.manifest.jobs
        taxonomy = "worker_crash" if camp.workers else "io_error"
        for row in (camp.manifest.jobs[digest], s["jobs"][digest]):
            assert row["status"] == "done" and "result" in row
            assert "error" not in row and "lease" not in row
        entry = camp.manifest.jobs[digest]
        assert [a["taxonomy"] for a in entry["attempts"]] == [taxonomy]
        assert s["jobs"][digest]["attempts"] == 2  # executions

    @pytest.mark.parametrize("name", sorted(LIFECYCLES))
    def test_events_counters_and_manifest_agree(self, tmp_path, name):
        # The hub stream, folded through TRANSITIONS alone, reproduces
        # the manifest's statuses and every counter the table owns.
        by_kind = {
            row.emits: event for event, row in TRANSITIONS.items() if row.emits
        }
        hub, events = ObserverHub(), []

        def record(kind, /, **facts):
            events.append((by_kind.get(kind) or facts["status"], facts))

        for kind in ("campaign_job", *by_kind):
            hub.subscribe(kind, functools.partial(record, kind))
        camp = self.scenario(name, tmp_path, hub)
        statuses = {d: e["status"] for d, e in camp.manifest.jobs.items()}
        camp.run()
        assert [e for e, _facts in events] == [
            "start", *self.LIFECYCLES[name], "end"
        ]
        counted = collections.Counter()
        for event, facts in events:
            row = TRANSITIONS[event]
            counted.update(row.counters)
            if row.status is not None:
                statuses[facts["digest"]] = row.status
        tally = collections.Counter(statuses.values())
        assert {
            st: tally[st] for st in JOB_STATUSES
        } == camp.manifest.status_counts()
        owned = {c for row in TRANSITIONS.values() for c in row.counters}
        assert {c: counted[c] for c in owned} == {
            c: camp.metrics.counter_total(c) for c in owned
        }


def test_campaign_doc_lists_the_transition_table():
    """``docs/campaign.md`` names every status, per-status field, event,
    hub event kind and counter the lifecycle tables declare."""
    path = os.path.join(
        os.path.dirname(__file__), "..", "docs", "campaign.md"
    )
    with open(path, encoding="utf-8") as fh:
        sections = {
            sec.split("\n", 1)[0]: sec for sec in fh.read().split("\n## ")
        }
    manifest = sections["Manifest and resume"]
    for status, fields in STATUS_FIELDS.items():
        for name in (status, *fields):
            assert f"`{name}`" in manifest, f"{status}: {name}"
    lifecycle = (
        sections["Failure handling"] + sections["Counters and progress"]
    )
    for event, row in TRANSITIONS.items():
        assert f"`{row.emits or event}`" in lifecycle, event
    for counter in COUNTERS:
        assert f"`{counter}`" in lifecycle, counter


@pytest.mark.slow
class TestCampaignCLI:
    def write_spec(self, tmp_path, **kw):
        doc = tiny_spec(name="cli", seeds=(0,), **kw).to_dict()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_dry_run_table(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        rc = main(
            ["campaign", spec, "--dry-run", "-d", str(tmp_path / "c")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign plan: cli" in out
        assert "turbine_tiny" in out

    def test_run_then_resume_directory(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        root = str(tmp_path / "c")
        assert main(["campaign", spec, "-d", root]) == 0
        out = capsys.readouterr().out
        assert "done 1/1" in out
        # Resuming the directory re-runs nothing.
        assert main(["campaign", root, "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["jobs_run"] == 0
        assert summary["status_counts"]["done"] == 1

    def test_output_file(self, tmp_path):
        spec = self.write_spec(tmp_path)
        out = tmp_path / "summary.json"
        rc = main(
            ["campaign", spec, "--dry-run", "-d", str(tmp_path / "c"),
             "--format", "json", "-o", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["dry_run"]

    def test_bad_spec_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["campaign", str(bad)]) == 1
        # A misspelt option value is a spec error too: nothing runs.
        typo = self.write_spec(
            tmp_path, grid={"amg.smoother": ["two_stage_gs", "bogus"]}
        )
        root = tmp_path / "c"
        assert main(["campaign", typo, "--dry-run", "-d", str(root)]) == 1
        assert main(["campaign", typo, "-d", str(root)]) == 1
        assert "AMGOptions.smoother" in capsys.readouterr().err
        assert not root.exists()

    def test_supervised_run_exits_0(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        rc = main(
            ["campaign", spec, "--workers", "1", "--max-attempts", "2",
             "--job-timeout", "60", "-d", str(tmp_path / "c"),
             "--format", "json"]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert "supervised" not in summary
        assert summary["workers"] == 1
        assert summary["status_counts"]["done"] == 1

    def test_inline_with_timeout_exits_1(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        rc = main(
            ["campaign", spec, "--job-timeout", "60",
             "-d", str(tmp_path / "c")]
        )
        assert rc == 1
        assert "workers=0" in capsys.readouterr().err

    def test_quarantined_jobs_exit_3(self, tmp_path, capsys):
        # Default flags: inline, one attempt — still quarantine + exit 3.
        doc = tiny_spec(name="cli_poison", seeds=(0,), steps=2).to_dict()
        doc["base"] = merge_overrides(doc["base"], POISON)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        rc = main(
            ["campaign", str(path), "-d", str(tmp_path / "c"),
             "--format", "json"]
        )
        assert rc == 3
        summary = json.loads(capsys.readouterr().out)
        assert summary["status_counts"]["quarantined"] == 1
        assert summary["retries"] == 0  # deterministic: no retry burned

    def test_unknown_workload_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--workload", "no_such_workload"])
        assert exc.value.code == 2

    def test_list_workloads_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--list"])
        assert exc.value.code == 0
        assert "turbine_tiny" in capsys.readouterr().out

    def test_run_config_file(self, tmp_path, capsys):
        cfg = SimulationConfig(nranks=2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        rc = main(
            ["run", "--workload", "turbine_tiny", "--steps", "1",
             "--config", str(path)]
        )
        assert rc == 0
        assert "2 ranks" in capsys.readouterr().out
