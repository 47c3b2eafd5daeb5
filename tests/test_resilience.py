"""Tests for the resilience subsystem: guards, recovery, fault injection."""

import json

import numpy as np
import pytest

from repro.core.config import SimulationConfig, SolverConfig
from repro.core.simulation import NaluWindSimulation
from repro.krylov.api import KrylovResult
from repro.linalg import ParVector
from repro.comm import (
    CommCorruptionError,
    CommDeadlockError,
    CommError,
    CommRetriesExhaustedError,
    MessageEnvelope,
    SimWorld,
)
from repro.resilience import (
    CheckpointWriteError,
    FaultInjector,
    FaultSpec,
    RECOVERY_ACTIONS,
    RecoveryPolicy,
    SolverFailure,
    classify_failure,
    iterate_is_finite,
    operands_are_finite,
    summarize_events,
    validate_fields,
    validate_iterate,
)
from repro.resilience.policy import LADDER, solve_with_recovery

#: The recovery summary of a run in which nothing failed.
CLEAN_RECOVERY = {"failures": 0, "recoveries": {}, "events": []}


def result_with(data, residual=1e-8, converged=True):
    w = SimWorld(1)
    x = ParVector(w, np.array([0, len(data)]), np.asarray(data, dtype=float))
    return KrylovResult(
        x=x,
        iterations=3,
        residual_norm=residual,
        converged=converged,
        residual_history=[1.0, 0.1],
        method="gmres",
    )


class TestGuards:
    def test_finite_iterate_passes(self):
        validate_iterate(result_with([1.0, 2.0]), equation="momentum")

    def test_nan_iterate_raises_with_context(self):
        res = result_with([1.0, np.nan], residual=np.nan)
        with pytest.raises(SolverFailure) as ei:
            validate_iterate(res, equation="pressure", phase="pressure/solve")
        f = ei.value
        assert f.kind == "nonfinite_iterate"
        assert f.equation == "pressure"
        assert f.phase == "pressure/solve"
        assert f.iterations == 3
        assert f.residual_history == [1.0, 0.1]
        d = f.to_dict()
        assert d["equation"] == "pressure"
        assert d["kind"] == "nonfinite_iterate"

    def test_inf_residual_detected(self):
        assert not iterate_is_finite(result_with([1.0], residual=np.inf))

    def test_validate_fields_names_offender(self):
        with pytest.raises(SolverFailure) as ei:
            validate_fields(
                {"velocity": np.ones(3), "pressure": np.array([1.0, np.inf])}
            )
        assert ei.value.equation == "pressure"
        assert ei.value.kind == "nonfinite_fields"

    def test_operands_are_finite(self):
        from scipy import sparse
        from repro.linalg import ParCSRMatrix

        w = SimWorld(1)
        A = ParCSRMatrix(
            w, sparse.eye(3, format="csr"), np.array([0, 3])
        )
        b = ParVector(w, np.array([0, 3]), np.ones(3))
        assert operands_are_finite(A, b)
        b.data[1] = np.nan
        assert not operands_are_finite(A, b)


class TestPolicyAndSpecs:
    def test_policy_defaults_valid(self):
        RecoveryPolicy().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ladder": ("warp_core_eject",)},
            {"retry_scale": 0.5},
            {"dt_backoff": 0.0},
            {"dt_backoff": 1.5},
            {"max_step_retries": -1},
        ],
    )
    def test_policy_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryPolicy(**kwargs).validate()

    def test_fault_spec_validation(self):
        FaultSpec(kind="exchange_nan").validate()
        with pytest.raises(ValueError):
            FaultSpec(kind="gamma_ray").validate()
        with pytest.raises(ValueError):
            FaultSpec(kind="matrix_corrupt", mode="wiggle").validate()
        with pytest.raises(ValueError):
            FaultSpec(kind="solver_stall", at=-1).validate()

    def test_worker_fault_spec_validation(self):
        FaultSpec(kind="worker_crash", point="ckpt", job="abc").validate()
        FaultSpec(kind="worker_hang", point="run").validate()
        with pytest.raises(ValueError):
            # `point` is meaningful only for process-level kinds.
            FaultSpec(kind="solver_stall", point="run").validate()
        with pytest.raises(ValueError):
            FaultSpec(kind="worker_crash", point="nowhere").validate()

    def test_worker_fault_spec_round_trip(self):
        spec = FaultSpec(
            kind="worker_hang", at=1, point="store", job="deadbeef"
        )
        again = FaultSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.point == "store" and again.job == "deadbeef"

    def test_config_validates_recovery_and_faults(self):
        cfg = SimulationConfig(recovery=RecoveryPolicy(dt_backoff=2.0))
        with pytest.raises(ValueError):
            cfg.validate()
        cfg = SimulationConfig(faults=(FaultSpec(kind="nope"),))
        with pytest.raises(ValueError):
            cfg.validate()

    def test_summarize_events(self):
        assert summarize_events([]) == CLEAN_RECOVERY
        events = [
            {"event": "solver_failure", "equation": "momentum"},
            {"event": "recovery", "action": "rebuild_precond",
             "success": False},
            {"event": "recovery", "action": "rollback_restep",
             "success": True},
        ]
        s = summarize_events(events)
        assert s["failures"] == 1
        assert s["recoveries"] == {"rollback_restep": 1}
        assert len(s["events"]) == 3


class TestFaultInjector:
    def test_opportunity_counting(self):
        inj = FaultInjector((FaultSpec(kind="solver_stall", at=2),))
        assert not inj.on_solve("momentum")
        assert not inj.on_solve("momentum")
        assert inj.on_solve("momentum")
        assert inj.exhausted()
        # One-shot: never fires again.
        assert not inj.on_solve("momentum")

    def test_equation_filter(self):
        inj = FaultInjector(
            (FaultSpec(kind="solver_stall", at=0, equation="pressure"),)
        )
        assert not inj.on_solve("momentum")
        assert inj.on_solve("pressure")

    def test_exchange_corruption_replaces_copy(self):
        inj = FaultInjector((FaultSpec(kind="exchange_nan", at=0),), seed=4)
        original = np.ones(5)
        recv = [[original], []]
        inj.on_alltoallv(recv, phase="x")
        # The sender-side buffer is untouched; the delivered copy is not.
        assert np.all(np.isfinite(original))
        assert not np.all(np.isfinite(recv[0][0]))
        assert inj.fired[0]["kind"] == "exchange_nan"

    def test_exchange_corruption_tuple_payload(self):
        inj = FaultInjector((FaultSpec(kind="exchange_nan", at=0),), seed=4)
        idx = np.arange(3)
        vals = np.ones(3)
        recv = [[(idx, idx, vals)]]
        inj.on_alltoallv(recv)
        i2, j2, v2 = recv[0][0]
        assert i2 is idx and j2 is idx
        assert np.all(np.isfinite(vals))
        assert not np.all(np.isfinite(v2))

    def test_on_worker_keys_on_job_and_attempt(self):
        # Matching is (job-id prefix, attempt index) — never a global
        # opportunity counter — so chaos schedules replay identically
        # under any worker count or completion interleaving.
        inj = FaultInjector(
            (FaultSpec(kind="worker_crash", at=1, point="run", job="aaa"),)
        )
        assert inj.on_worker("bbb12345", 1) is None  # wrong job
        assert inj.on_worker("aaa12345", 0) is None  # wrong attempt
        spec = inj.on_worker("aaa12345", 1)
        assert spec is not None and spec.kind == "worker_crash"
        assert inj.on_worker("aaa12345", 1) is None  # one-shot
        assert inj.fired[0]["point"] == "run"
        assert inj.exhausted()

    def test_on_worker_empty_job_matches_any(self):
        inj = FaultInjector((FaultSpec(kind="worker_hang", at=0),))
        assert inj.on_worker("anything", 0) is not None

    def test_on_io_job_filter_scopes_the_window(self):
        # A two-entry window filtered to one job's path fails exactly
        # that job's I/O twice and never counts other paths as
        # opportunities.
        inj = FaultInjector(
            (FaultSpec(kind="io_fail", at=0, entries=2, job="aaa"),)
        )
        assert not inj.on_io("store_put", "/store/bbb.json")
        assert inj.on_io("store_put", "/store/aaa.json")
        assert not inj.on_io("store_put", "/store/bbb.json")
        assert inj.on_io("store_put", "/store/aaa.json")
        assert not inj.on_io("store_put", "/store/aaa.json")
        assert inj.exhausted()

    def test_deterministic_under_seed(self):
        def corrupt():
            inj = FaultInjector(
                (FaultSpec(kind="exchange_nan", at=0, entries=2),), seed=11
            )
            recv = [[np.ones(8)], [np.ones(8)]]
            inj.on_alltoallv(recv)
            return [np.isnan(p).tolist() for row in recv for p in row]

        assert corrupt() == corrupt()


def fault_cfg(kind, at, equation=None, seed=7, **cfg_kw):
    return SimulationConfig(
        faults=(FaultSpec(kind=kind, at=at, equation=equation),),
        fault_seed=seed,
        **cfg_kw,
    )


class TestEndToEndRecovery:
    def test_nominal_run_has_empty_recovery(self):
        sim = NaluWindSimulation("turbine_tiny")
        rep = sim.run(2)
        assert rep.recovery == CLEAN_RECOVERY
        assert rep.telemetry.resilience == CLEAN_RECOVERY
        assert sim.world.metrics.counter_total("resilience.failures") == 0
        assert sim.world.metrics.counter_total("resilience.recoveries") == 0

    @pytest.mark.parametrize(
        "kind,at,equation,expect_action",
        [
            ("exchange_nan", 40, None, "rollback_restep"),
            ("matrix_corrupt", 3, "pressure", "rollback_restep"),
            ("solver_stall", 5, "momentum", "rebuild_precond"),
        ],
    )
    def test_fault_recovers_with_finite_fields(
        self, kind, at, equation, expect_action
    ):
        sim = NaluWindSimulation("turbine_tiny", fault_cfg(kind, at, equation))
        rep = sim.run(2)
        assert sim.world.fault_injector.exhausted()
        assert rep.n_steps == 2
        assert np.all(np.isfinite(sim.velocity))
        assert np.all(np.isfinite(sim.pressure_field))
        assert np.all(np.isfinite(sim.scalar_field))
        assert rep.recovery["failures"] >= 1
        assert rep.recovery["recoveries"].get(expect_action, 0) >= 1
        # Telemetry mirrors the report and the counters mirror the events.
        assert rep.telemetry.resilience["recoveries"] == rep.recovery[
            "recoveries"
        ]
        m = sim.world.metrics
        assert m.counter_total("resilience.failures") == rep.recovery[
            "failures"
        ]
        assert m.counter_total("resilience.recoveries") == sum(
            rep.recovery["recoveries"].values()
        )

    def test_recovery_disabled_raises_structured_failure(self):
        cfg = fault_cfg(
            "exchange_nan", 40, recovery=RecoveryPolicy(enabled=False)
        )
        sim = NaluWindSimulation("turbine_tiny", cfg)
        with pytest.raises(SolverFailure) as ei:
            sim.run(2)
        f = ei.value
        assert f.kind in ("nonfinite_iterate", "nonfinite_operands")
        assert f.equation
        assert f.phase.endswith("/solve")
        # The failure was still counted and published.
        assert sim.world.metrics.counter_total("resilience.failures") == 1
        assert any(
            e["event"] == "solver_failure" for e in sim.recovery_events
        )

    def test_guards_off_restores_legacy_silent_behavior(self):
        cfg = fault_cfg(
            "exchange_nan",
            40,
            recovery=RecoveryPolicy(
                enabled=False, guards=False, recover_non_convergence=False
            ),
        )
        sim = NaluWindSimulation("turbine_tiny", cfg)
        rep = sim.run(2)  # completes: nothing acts on the corruption
        assert rep.recovery == CLEAN_RECOVERY
        assert sim.world.metrics.counter_total("resilience.failures") == 0
        # The poisoned solve is silently recorded as non-converged and
        # the simulation marches on — exactly the legacy failure mode
        # the guards exist to catch.
        records = [r for eq in sim.systems for r in eq.solve_records]
        assert any(
            not r.converged or not np.isfinite(r.residual_norm)
            for r in records
        )

    def test_rollback_budget_exhaustion_surfaces_failure(self):
        cfg = fault_cfg(
            "exchange_nan",
            40,
            recovery=RecoveryPolicy(max_step_retries=0),
        )
        sim = NaluWindSimulation("turbine_tiny", cfg)
        with pytest.raises(SolverFailure):
            sim.run(2)

    def test_rollback_backs_off_dt_and_restores_it(self):
        cfg = fault_cfg("exchange_nan", 40)
        sim = NaluWindSimulation("turbine_tiny", cfg)
        dt0 = cfg.dt
        rep = sim.run(2)
        assert cfg.dt == dt0
        rollbacks = [
            e
            for e in rep.recovery["events"]
            if e.get("action") == "rollback_restep"
        ]
        assert len(rollbacks) == 1
        assert f"{dt0:.4g} -> {dt0 * 0.5:.4g}" in rollbacks[0]["detail"]

    def test_deterministic_under_fixed_seed(self):
        def one_run():
            sim = NaluWindSimulation(
                "turbine_tiny", fault_cfg("exchange_nan", 40)
            )
            rep = sim.run(2)
            return (
                json.dumps(rep.recovery, sort_keys=True),
                sim.world.fault_injector.fired,
                sim.velocity.copy(),
                sim.pressure_field.copy(),
            )

        r1, f1, v1, p1 = one_run()
        r2, f2, v2, p2 = one_run()
        assert r1 == r2
        assert f1 == f2
        assert np.array_equal(v1, v2)
        assert np.array_equal(p1, p2)

    def test_ladder_subset_expand_krylov(self):
        cfg = fault_cfg(
            "solver_stall",
            5,
            equation="momentum",
            recovery=RecoveryPolicy(ladder=("expand_krylov",)),
        )
        sim = NaluWindSimulation("turbine_tiny", cfg)
        rep = sim.run(2)
        assert rep.recovery["recoveries"] == {"expand_krylov": 1}

    def test_hub_events_carry_recovery_fields(self):
        sim = NaluWindSimulation(
            "turbine_tiny", fault_cfg("solver_stall", 5, equation="momentum")
        )
        seen = []
        sim.world.hub.subscribe("recovery", lambda **kw: seen.append(kw))
        sim.run(2)
        assert seen
        ev = seen[0]
        assert ev["equation"] == "momentum"
        assert ev["kind"] == "non_convergence"
        assert ev["action"] == "rebuild_precond"
        assert ev["attempt"] == 1
        assert ev["success"] is True


class TestSolverLadder:
    """The LADDER table: every rung is reached from it, on every
    equation, and nothing outside it can be asked for."""

    @pytest.mark.parametrize("equation", ["momentum", "pressure", "scalar"])
    @pytest.mark.parametrize("action", list(LADDER))
    def test_every_rung_is_reached_on_every_equation(self, action, equation):
        cfg = SimulationConfig(
            faults=(FaultSpec("solver_stall", at=1, equation=equation),),
            recovery=RecoveryPolicy(ladder=(action,)),
        )
        rep = NaluWindSimulation("turbine_tiny", cfg).run(1)
        assert rep.recovery["failures"] == 1
        assert rep.recovery["recoveries"] == {action: 1}
        (event,) = [e for e in rep.recovery["events"] if "action" in e]
        assert (event["equation"], event["attempt"]) == (equation, 1)

    def test_unknown_rung_is_refused_at_the_door(self):
        # The ladder walk indexes LADDER without a fallback branch: the
        # config schema is what keeps an unknown action from reaching it.
        cfg = SimulationConfig(
            recovery=RecoveryPolicy(ladder=("rebuild_precond", "reboot"))
        )
        with pytest.raises(ValueError, match="reboot"):
            NaluWindSimulation("turbine_tiny", cfg)
        with pytest.raises(ValueError, match="reboot"):
            SimulationConfig.from_dict({"recovery": {"ladder": ["reboot"]}})

    @pytest.mark.parametrize("guards", [True, False])
    def test_nonfinite_retry_is_not_a_recovery(self, guards):
        """First attempt and rungs share one health check; the one case
        they differ on — guards off, a rung handing back NaN — stays
        'not recovered'."""
        world = SimWorld(1)
        results = iter(
            [
                result_with([1.0, 2.0], converged=False),
                result_with([np.nan, 2.0], converged=True),
            ]
        )
        seen = []
        world.hub.subscribe("recovery", lambda **kw: seen.append(kw))
        with pytest.raises(SolverFailure) as ei:
            solve_with_recovery(
                world,
                RecoveryPolicy(guards=guards, ladder=("expand_krylov",)),
                "pressure",
                SolverConfig(),
                lambda cfg, rebuild: next(results),
                lambda: True,
            )
        assert ei.value.kind == "non_convergence"
        assert ei.value.attempts == ("expand_krylov",)
        assert [(e["action"], e["success"]) for e in seen] == [
            ("expand_krylov", False)
        ]
        assert world.metrics.counter_total("resilience.recoveries") == 0

    def test_rung_config_is_a_pure_function_of_the_table(self):
        cfg = SolverConfig(method="gmres", restart=30, max_iters=100)
        policy = RecoveryPolicy(retry_scale=3.0)
        assert LADDER["rebuild_precond"](cfg, policy) == (True, cfg)
        rebuild, boosted = LADDER["expand_krylov"](cfg, policy)
        assert (rebuild, boosted.restart, boosted.max_iters) == (False, 90, 300)
        assert LADDER["fallback_method"](cfg, policy)[1].method == "cg"
        for method in ("cg", "pipelined_cg"):
            alt = LADDER["fallback_method"](SolverConfig(method=method), policy)
            assert alt[1].method == "gmres"
        assert cfg == SolverConfig(method="gmres", restart=30, max_iters=100)


class TestCacheInvalidation:
    def test_reset_solver_caches_clears_and_repopulates(self):
        sim = NaluWindSimulation("turbine_tiny")
        sim.run(1)
        m = sim.momentum
        assert m._plan is not None and m._plan.matrix_ready
        assert m._precond is not None
        m.reset_solver_caches()
        assert m._plan is None
        assert m._precond is None
        sim.run(1)
        assert m._plan is not None and m._plan.matrix_ready
        assert m._precond is not None

    def test_recovery_rebuild_invalidates_assembly_plan(self):
        """The forced rebuild drops the assembly plan: the next momentum
        assemble re-captures it (one extra plan rebuild vs nominal)."""
        nominal = NaluWindSimulation("turbine_tiny")
        nominal.run(2)
        n_rebuilds = nominal.world.metrics.counter(
            "assembly.plan_rebuilds", equation="momentum"
        ).value

        sim = NaluWindSimulation(
            "turbine_tiny", fault_cfg("solver_stall", 5, equation="momentum")
        )
        rep = sim.run(2)
        assert rep.recovery["recoveries"] == {"rebuild_precond": 1}
        rebuilds = sim.world.metrics.counter(
            "assembly.plan_rebuilds", equation="momentum"
        ).value
        assert rebuilds == n_rebuilds + 1

    def test_recovery_rebuild_rebuilds_pressure_amg(self):
        """A stalled pressure solve forces a fresh AMG hierarchy build."""
        nominal = NaluWindSimulation("turbine_tiny")
        nominal.run(2)
        n_setups = len(nominal.amg_setups)

        sim = NaluWindSimulation(
            "turbine_tiny", fault_cfg("solver_stall", 2, equation="pressure")
        )
        rep = sim.run(2)
        assert rep.recovery["recoveries"] == {"rebuild_precond": 1}
        assert len(sim.amg_setups) == n_setups + 1


class TestFailureClassification:
    @pytest.mark.parametrize(
        "exc,expected",
        [
            (CommDeadlockError("x"), "comm_deadlock"),
            (CommCorruptionError("x"), "comm_corrupt"),
            (CommRetriesExhaustedError("x"), "comm_retries_exhausted"),
            (CommError("x"), "comm_retries_exhausted"),
            (OSError("disk on fire"), "io_error"),
            (RuntimeError("anything else"), "non_convergence"),
        ],
    )
    def test_exception_mapping(self, exc, expected):
        assert classify_failure(exc) == expected

    def test_solver_failure_keeps_its_kind(self):
        f = SolverFailure("x", equation="pressure", kind="nonfinite_iterate")
        assert classify_failure(f) == "nonfinite_iterate"


class TestInjectorState:
    def post_envelope(self, inj, seq=0):
        env = MessageEnvelope(
            seq=seq, src=0, dst=1, phase="p", payload=np.ones(4)
        )
        return inj.on_post(env)

    def test_io_fail_window(self):
        inj = FaultInjector((FaultSpec("io_fail", at=1, entries=2),))
        assert not inj.on_io("write")  # opportunity 0: before the window
        assert inj.on_io("write")  # 1
        assert inj.on_io("write")  # 2: window end, spec fires out
        assert inj.exhausted()
        assert not inj.on_io("write")
        assert [f["opportunity"] for f in inj.fired] == [1, 2]

    def test_state_dict_roundtrip_resumes_schedule(self):
        specs = (
            FaultSpec("message_drop", at=2),
            FaultSpec("io_fail", at=1, entries=2),
        )
        inj = FaultInjector(specs, seed=3)
        self.post_envelope(inj)  # drop opportunity 0
        inj.on_io("write")  # io opportunity 0
        inj.on_io("write")  # io opportunity 1: fires
        snapshot = inj.state_dict()
        assert json.dumps(snapshot)  # JSON-ready for the checkpoint header

        resumed = FaultInjector(specs, seed=999)  # seed replaced by state
        resumed.load_state(snapshot)
        assert resumed.fired == inj.fired
        # The restored schedule continues exactly where it left off: drop
        # has seen 1 of its 3 opportunities, io fires once more.
        assert resumed.on_io("write")
        assert self.post_envelope(resumed, seq=1) != []  # opportunity 1
        assert self.post_envelope(resumed, seq=2) == []  # opportunity 2 fires
        assert resumed.exhausted()

    def test_load_state_rejects_spec_mismatch(self):
        inj = FaultInjector((FaultSpec("message_drop"),))
        other = FaultInjector(
            (FaultSpec("message_drop"), FaultSpec("io_fail"))
        )
        with pytest.raises(ValueError):
            other.load_state(inj.state_dict())

    def test_policy_validates_new_knobs(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(comm_max_retries=-1).validate()
        with pytest.raises(ValueError):
            RecoveryPolicy(max_checkpoint_restores=-1).validate()
        assert "checkpoint_restore" in RECOVERY_ACTIONS


class TestTransportFaultMatrix:
    """End-to-end matrix: every p2p/I-O fault kind x recovery outcome."""

    @pytest.fixture(scope="class")
    def nominal(self):
        sim = NaluWindSimulation("turbine_tiny")
        sim.run(2)
        return sim

    @pytest.mark.parametrize(
        "kind,at,counter",
        [
            ("message_drop", 3, "comm.drops_detected"),
            ("message_corrupt", 5, "comm.corrupt_detected"),
            ("message_duplicate", 2, "comm.duplicates_discarded"),
        ],
    )
    def test_transport_fault_is_transparent(self, nominal, kind, at, counter):
        """Within the retry budget, transport faults never reach the
        solver: the run finishes bit-identical to the nominal one."""
        sim = NaluWindSimulation("turbine_tiny", fault_cfg(kind, at))
        rep = sim.run(2)
        assert sim.world.fault_injector.exhausted()
        assert rep.recovery == CLEAN_RECOVERY
        assert sim.world.metrics.counter_total(counter) == 1
        expected_retries = 0 if kind == "message_duplicate" else 1
        assert (
            sim.world.metrics.counter_total("comm.retries")
            == expected_retries
        )
        for name in ("velocity", "pressure_field", "scalar_field"):
            assert (
                getattr(sim, name).tobytes()
                == getattr(nominal, name).tobytes()
            ), name

    @pytest.mark.parametrize("kind", ["message_drop", "message_corrupt"])
    def test_exhausted_retries_recover_via_ladder(self, kind):
        """With a zero retry budget a single transport fault escalates:
        the solve aborts, in-flight channels are purged, and the ladder's
        first rung re-drives the exchange successfully."""
        cfg = fault_cfg(
            kind, 3, recovery=RecoveryPolicy(comm_max_retries=0)
        )
        sim = NaluWindSimulation("turbine_tiny", cfg)
        rep = sim.run(2)
        assert rep.recovery["failures"] == 1
        assert rep.recovery["recoveries"] == {"rebuild_precond": 1}
        assert {e.get("kind") for e in rep.recovery["events"]} == {
            "comm_retries_exhausted"
        }
        assert sim.world.metrics.counter_total("comm.purged") >= 1
        assert np.all(np.isfinite(sim.velocity))

    def test_exhausted_retries_disabled_recovery_raises(self):
        cfg = fault_cfg(
            "message_drop",
            3,
            recovery=RecoveryPolicy(comm_max_retries=0, enabled=False),
        )
        sim = NaluWindSimulation("turbine_tiny", cfg)
        with pytest.raises(SolverFailure) as ei:
            sim.run(2)
        f = ei.value
        assert f.kind == "comm_retries_exhausted"
        assert f.equation
        assert f.phase.endswith("/solve")

    def test_io_fault_window_is_retried(self, tmp_path):
        cfg = fault_cfg(
            "io_fail",
            0,
            checkpoint_every=1,
            checkpoint_dir=str(tmp_path),
        )
        cfg.faults = (FaultSpec("io_fail", at=0, entries=2),)
        sim = NaluWindSimulation("turbine_tiny", cfg)
        rep = sim.run(2)
        m = sim.world.metrics
        assert m.counter_total("resilience.checkpoint.writes") == 2
        assert m.counter_total("resilience.checkpoint.write_retries") == 2
        assert rep.recovery["checkpoint"]["write_retries"] == 2

    def test_io_window_wider_than_budget_fails_run(self, tmp_path):
        cfg = SimulationConfig(
            faults=(FaultSpec("io_fail", at=0, entries=10),),
            fault_seed=7,
            checkpoint_every=1,
            checkpoint_dir=str(tmp_path),
        )
        sim = NaluWindSimulation("turbine_tiny", cfg)
        with pytest.raises(CheckpointWriteError):
            sim.run(1)
        assert (
            sim.world.metrics.counter_total(
                "resilience.checkpoint.write_failures"
            )
            == 1
        )

    def test_checkpoint_restore_rung(self, tmp_path):
        """A failure that exhausts the in-memory rollback budget rewinds
        to the newest durable checkpoint and completes the run."""
        cfg = fault_cfg(
            "exchange_nan",
            40,
            recovery=RecoveryPolicy(max_step_retries=0),
            checkpoint_every=1,
            checkpoint_dir=str(tmp_path),
        )
        sim = NaluWindSimulation("turbine_tiny", cfg)
        rep = sim.run(2)
        assert sim.step_index == 2
        assert rep.recovery["recoveries"] == {"checkpoint_restore": 1}
        assert rep.recovery["checkpoint"]["restores"] == 1
        restore = next(
            e
            for e in rep.recovery["events"]
            if e.get("action") == "checkpoint_restore"
        )
        assert restore["success"] is True
        assert "step 1 -> 1" in restore["detail"]
        assert np.all(np.isfinite(sim.velocity))
        # The counters mirror the events on this rung too.
        m = sim.world.metrics
        assert m.counter_total("resilience.failures") == rep.recovery[
            "failures"
        ]
        assert m.counter_total("resilience.recoveries") == sum(
            rep.recovery["recoveries"].values()
        )

    def test_checkpoint_restore_rewinds_the_step_history(
        self, nominal, tmp_path
    ):
        """After an in-run restore (step 3 -> ring entry 2, then on to 4)
        the report has one divergence norm and one cumulative snapshot per
        step, and entry i is step i's."""
        cfg = fault_cfg(
            "exchange_nan",
            100,  # inside step 4
            recovery=RecoveryPolicy(max_step_retries=0),
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
        )
        rep = NaluWindSimulation("turbine_tiny", cfg).run(4)
        assert rep.recovery["recoveries"] == {"checkpoint_restore": 1}
        assert "step 3 -> 2" in rep.recovery["events"][-1]["detail"]
        assert rep.n_steps == 4
        assert len(rep.divergence_norms) == len(rep.step_snapshots) == 4
        assert rep.divergence_norms[:2] == nominal.divergence_norms
        assert len(set(rep.divergence_norms)) == 4  # no step counted twice
        # Cumulative snapshots stay monotone across the discarded step.
        flops = [
            sum(agg.flops for agg in snap.values())
            for snap in rep.step_snapshots
        ]
        assert flops == sorted(flops)

    def test_checkpoint_restore_budget_bounds_restores(self, tmp_path):
        """With the restore budget already spent, the failure surfaces."""
        cfg = fault_cfg(
            "exchange_nan",
            40,
            recovery=RecoveryPolicy(
                max_step_retries=0, max_checkpoint_restores=0
            ),
            checkpoint_every=1,
            checkpoint_dir=str(tmp_path),
        )
        sim = NaluWindSimulation("turbine_tiny", cfg)
        with pytest.raises(SolverFailure):
            sim.run(2)
        assert (
            sim.world.metrics.counter_total(
                "resilience.checkpoint.restores"
            )
            == 0
        )
