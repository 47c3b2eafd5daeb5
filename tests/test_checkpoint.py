"""Tests for durable checkpoint/restart: format, retention, bitwise resume."""

import os

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.simulation import STATE_FIELDS, NaluWindSimulation
from repro.obs.metrics import MetricsRegistry
from repro.resilience import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointManager,
    CheckpointNotFoundError,
    CheckpointWriteError,
    FaultInjector,
    FaultSpec,
    deserialize_checkpoint,
    read_checkpoint,
    serialize_checkpoint,
)
from repro.resilience.checkpoint import FILE_PATTERN, MAGIC, checkpoint_step


def sample_state():
    rng = np.random.default_rng(5)
    arrays = {
        "velocity": rng.standard_normal((7, 3)),
        "pressure": rng.standard_normal(7) * 1e-18,
        "ids": np.arange(7, dtype=np.int64),
    }
    meta = {"step_index": 3, "dt": 0.5, "nested": {"angles": [0.1, 0.2]}}
    return arrays, meta


class TestFormat:
    def test_roundtrip_is_bitwise(self):
        arrays, meta = sample_state()
        got_arrays, got_meta = deserialize_checkpoint(
            serialize_checkpoint(arrays, meta)
        )
        assert got_meta == meta
        assert sorted(got_arrays) == sorted(arrays)
        for name, arr in arrays.items():
            got = got_arrays[name]
            assert got.dtype == arr.dtype
            assert got.shape == arr.shape
            assert got.tobytes() == arr.tobytes()

    def test_restored_arrays_are_writable_copies(self):
        arrays, meta = sample_state()
        got, _ = deserialize_checkpoint(serialize_checkpoint(arrays, meta))
        got["velocity"][0, 0] = 42.0  # frombuffer views would raise here

    def test_bad_magic_rejected(self):
        arrays, meta = sample_state()
        blob = serialize_checkpoint(arrays, meta)
        with pytest.raises(CheckpointCorruptionError):
            deserialize_checkpoint(b"NOTCKPT!" + blob[len(MAGIC):])

    def test_truncation_rejected(self):
        blob = serialize_checkpoint(*sample_state())
        for cut in (4, len(MAGIC) + 4, len(blob) - 3):
            with pytest.raises(CheckpointCorruptionError):
                deserialize_checkpoint(blob[:cut])

    def test_payload_bit_flip_rejected(self):
        blob = bytearray(serialize_checkpoint(*sample_state()))
        blob[-1] ^= 0x01
        with pytest.raises(CheckpointCorruptionError):
            deserialize_checkpoint(bytes(blob))

    def test_garbled_header_rejected(self):
        bad = MAGIC + (4).to_bytes(8, "little") + b"\xff\xfe{!"
        with pytest.raises(CheckpointCorruptionError):
            deserialize_checkpoint(bad)

    def test_wrong_schema_rejected(self):
        blob = serialize_checkpoint(*sample_state())
        tampered = blob.replace(b"repro.checkpoint/1", b"repro.checkpoint/9")
        with pytest.raises(CheckpointCorruptionError):
            deserialize_checkpoint(tampered)

    def test_checkpoint_step_parsing(self):
        assert checkpoint_step(FILE_PATTERN.format(step=42)) == 42
        assert checkpoint_step("/ring/" + FILE_PATTERN.format(step=7)) == 7
        assert checkpoint_step("notes.txt") == -1
        assert checkpoint_step("ckpt-xyz.ckpt") == -1


class TestManager:
    def test_save_is_atomic_and_loadable(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path / "ring"))
        arrays, meta = sample_state()
        path = mgr.save(3, arrays, meta)
        assert os.path.basename(path) == FILE_PATTERN.format(step=3)
        assert not any(
            n.endswith(".tmp") for n in os.listdir(tmp_path / "ring")
        )
        got_arrays, got_meta = mgr.load(path)
        assert got_meta == meta
        assert got_arrays["velocity"].tobytes() == arrays["velocity"].tobytes()

    def test_retention_ring_prunes_oldest(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), keep=2)
        arrays, meta = sample_state()
        for step in (1, 2, 3):
            mgr.save(step, arrays, meta)
        assert [checkpoint_step(p) for p in mgr.list_checkpoints()] == [2, 3]

    def test_load_latest_good_falls_back_past_corrupt(self, tmp_path):
        metrics = MetricsRegistry()
        mgr = CheckpointManager(str(tmp_path), metrics=metrics)
        arrays, meta = sample_state()
        mgr.save(1, arrays, dict(meta, step_index=1))
        newest = mgr.save(2, arrays, dict(meta, step_index=2))
        with open(newest, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            fh.write(b"\x00")
        _, got_meta, got_path = mgr.load_latest_good()
        assert got_meta["step_index"] == 1
        assert checkpoint_step(got_path) == 1
        assert (
            metrics.counter_total("resilience.checkpoint.corrupt_detected")
            == 1
        )

    def test_load_latest_good_exhausts_ring(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        path = mgr.save(1, *sample_state())
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        with pytest.raises(CheckpointNotFoundError):
            mgr.load_latest_good()

    def test_empty_ring_raises_not_found(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError):
            CheckpointManager(str(tmp_path / "none")).load_latest_good()

    def test_write_retries_through_injected_fault_window(self, tmp_path):
        metrics = MetricsRegistry()
        mgr = CheckpointManager(
            str(tmp_path),
            max_io_retries=3,
            injector=FaultInjector((FaultSpec("io_fail", at=0, entries=2),)),
            metrics=metrics,
        )
        path = mgr.save(1, *sample_state())
        assert os.path.exists(path)
        assert (
            metrics.counter_total("resilience.checkpoint.write_retries") == 2
        )
        assert (
            metrics.counter_total("resilience.checkpoint.write_failures") == 0
        )

    def test_write_retry_budget_exhausted(self, tmp_path):
        metrics = MetricsRegistry()
        mgr = CheckpointManager(
            str(tmp_path),
            max_io_retries=2,
            injector=FaultInjector((FaultSpec("io_fail", at=0, entries=5),)),
            metrics=metrics,
        )
        with pytest.raises(CheckpointWriteError):
            mgr.save(1, *sample_state())
        assert (
            metrics.counter_total("resilience.checkpoint.write_failures") == 1
        )
        # The failed write never replaced anything: the ring stays empty.
        assert mgr.list_checkpoints() == []

    def test_read_injected_fault_surfaces_as_corruption(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        path = mgr.save(1, *sample_state())
        inj = FaultInjector((FaultSpec("io_fail", at=0),))
        with pytest.raises(CheckpointCorruptionError):
            read_checkpoint(path, injector=inj)
        # The fault was one-shot: a retry succeeds.
        read_checkpoint(path, injector=inj)

    def test_missing_file_raises_not_found(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError):
            read_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_manager_validates_settings(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), keep=0)
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), max_io_retries=-1)


class TestStateDictRoundTrips:
    def test_metrics_registry_roundtrip_is_lossless(self):
        src = MetricsRegistry()
        src.counter("solve.count", equation="pressure").inc(3)
        src.counter("solve.count", equation="momentum").inc()
        src.gauge("amg.levels").set(4.0)
        src.gauge("unwritten.gauge")
        src.histogram("solve.iters").observe(12.0)
        src.histogram("solve.iters").observe(3.0)
        dst = MetricsRegistry()
        dst.counter("stale.counter").inc(99)  # replaced, not merged
        dst.load_state(src.state_dict())
        assert dst.as_dict() == src.as_dict()
        assert dst.counter_total("stale.counter") == 0
        assert dst.gauge("unwritten.gauge")._written is False
        # A restored registry keeps accumulating from the restored values.
        dst.counter("solve.count", equation="pressure").inc()
        assert dst.counter_total("solve.count") == 5


#: ndarray attributes of the driver that are *derived*: recomputed from
#: the declared state by the next step, so a rewind need not carry them.
#: (None today; an array added to the driver goes in STATE_FIELDS or here.)
DERIVED_ARRAYS: frozenset[str] = frozenset()


class TestStateContract:
    """state() / set_state() over one declaration: a field the driver
    grows without declaring it fails here, not at a restart later."""

    @pytest.fixture(scope="class")
    def stepped(self):
        sim = NaluWindSimulation("turbine_tiny", SimulationConfig(nranks=2))
        sim.run(1)
        return sim

    def test_every_array_attribute_is_declared_or_derived(self, stepped):
        held = {
            k for k, v in vars(stepped).items() if isinstance(v, np.ndarray)
        }
        assert held == set(STATE_FIELDS) | DERIVED_ARRAYS
        assert not set(STATE_FIELDS) & DERIVED_ARRAYS

    def test_state_is_copies_and_carries_no_environment(self, stepped):
        arrays, meta = stepped.state()
        blades = {
            f"blade{i}/coords" for i in range(len(stepped.system.blades))
        }
        assert set(arrays) == set(STATE_FIELDS) | blades
        for name in STATE_FIELDS:
            assert not np.shares_memory(arrays[name], getattr(stepped, name))
        assert set(meta) == {
            "workload", "nranks", "step_index", "dt", "rotor_angles",
            "divergence_norms",
        }
        # The per-step snapshot must stay array copies: the registry dump,
        # the RNG / injector state and the modeled ledger are environment().
        assert set(stepped.environment()) == {
            "rng_state", "injector", "metrics", "solve_iterations",
            "ops", "traffic", "step_snapshots", "held_storage",
        }

    def test_set_state_round_trips_and_refuses_undeclared_arrays(self):
        sim = NaluWindSimulation("turbine_tiny", SimulationConfig(nranks=2))
        sim.run(1)
        arrays, meta = sim.state()
        sim.run(1)
        assert sim.step_index == 2 and len(sim.step_snapshots) == 2
        sim.set_state(arrays, meta)
        assert sim.step_index == 1 and len(sim.step_snapshots) == 1
        again, meta2 = sim.state()
        assert meta2 == meta
        for name, arr in arrays.items():
            assert again[name].tobytes() == arr.tobytes(), name
        for bad in (
            {**arrays, "vorticity": np.zeros(3)},
            {k: v for k, v in arrays.items() if k != "mdot"},
        ):
            with pytest.raises(CheckpointError):
                sim.set_state(bad, meta)


class TestSimulationRestart:
    def test_restart_resumes_bitwise(self, tmp_path):
        sim_a = NaluWindSimulation(
            "turbine_tiny",
            SimulationConfig(
                checkpoint_every=1, checkpoint_dir=str(tmp_path / "a")
            ),
        )
        sim_a.run(2)
        ckpt = str(tmp_path / "a" / FILE_PATTERN.format(step=1))
        sim_b = NaluWindSimulation(
            "turbine_tiny",
            SimulationConfig(
                checkpoint_every=1,
                checkpoint_dir=str(tmp_path / "b"),
                restart_from=ckpt,
            ),
        )
        assert sim_b.step_index == 1
        rep_b = sim_b.run(2)
        assert rep_b.n_steps == 1  # total-from-t=0 semantics
        for name in STATE_FIELDS:
            assert (
                getattr(sim_a, name).tobytes()
                == getattr(sim_b, name).tobytes()
            ), name
        for ma, mb in zip(sim_a.system.blades, sim_b.system.blades):
            assert ma.coords.tobytes() == mb.coords.tobytes()
        assert [r.angle for r in sim_a.system.rotations] == [
            r.angle for r in sim_b.system.rotations
        ]
        assert sim_a.divergence_norms == sim_b.divergence_norms
        # Counter parity: the restored run's totals match the
        # uninterrupted run's, including its own checkpoint writes.
        for counter in ("solve.count", "resilience.checkpoint.writes"):
            assert sim_a.world.metrics.counter_total(
                counter
            ) == sim_b.world.metrics.counter_total(counter), counter

    def test_restart_from_ring_directory_uses_newest(self, tmp_path):
        ring = str(tmp_path / "ring")
        sim_a = NaluWindSimulation(
            "turbine_tiny",
            SimulationConfig(checkpoint_every=1, checkpoint_dir=ring),
        )
        sim_a.run(2)
        sim_b = NaluWindSimulation(
            "turbine_tiny", SimulationConfig(restart_from=ring)
        )
        assert sim_b.step_index == 2

    def test_restart_rejects_nranks_mismatch(self, tmp_path):
        ring = str(tmp_path / "ring")
        sim = NaluWindSimulation(
            "turbine_tiny",
            SimulationConfig(
                nranks=2, checkpoint_every=1, checkpoint_dir=ring
            ),
        )
        sim.run(1)
        with pytest.raises(CheckpointError):
            NaluWindSimulation(
                "turbine_tiny",
                SimulationConfig(nranks=3, restart_from=ring),
            )

    def test_restart_rejects_workload_mismatch(self, tmp_path):
        ring = str(tmp_path / "ring")
        sim = NaluWindSimulation(
            "turbine_tiny",
            SimulationConfig(checkpoint_every=1, checkpoint_dir=ring),
        )
        sim.run(1)
        arrays, meta = read_checkpoint(
            os.path.join(ring, FILE_PATTERN.format(step=1))
        )
        with pytest.raises(CheckpointError):
            sim2 = NaluWindSimulation("turbine_tiny")
            sim2.workload_name = "turbine_low"
            sim2.set_state(arrays, meta)

    def test_resume_total_applies_only_to_first_run(self, tmp_path):
        ring = str(tmp_path / "ring")
        NaluWindSimulation(
            "turbine_tiny",
            SimulationConfig(checkpoint_every=2, checkpoint_dir=ring),
        ).run(2)
        sim = NaluWindSimulation(
            "turbine_tiny", SimulationConfig(restart_from=ring)
        )
        rep = sim.run(2)  # already at step 2: nothing to advance
        assert rep.n_steps == 0
        assert sim.step_index == 2
        sim.run(1)  # subsequent calls advance as usual
        assert sim.step_index == 3

    def test_recovery_summary_reports_checkpoint_activity(self, tmp_path):
        sim = NaluWindSimulation(
            "turbine_tiny",
            SimulationConfig(
                checkpoint_every=1, checkpoint_dir=str(tmp_path)
            ),
        )
        rep = sim.run(2)
        assert rep.recovery["checkpoint"]["writes"] == 2
        assert rep.recovery["checkpoint"]["restores"] == 0

    def test_checkpoint_and_restart_hub_events(self, tmp_path):
        ring = str(tmp_path / "ring")
        sim = NaluWindSimulation(
            "turbine_tiny",
            SimulationConfig(checkpoint_every=1, checkpoint_dir=ring),
        )
        ckpts = []
        sim.world.hub.subscribe("checkpoint", lambda **kw: ckpts.append(kw))
        sim.run(2)
        assert [e["step"] for e in ckpts] == [1, 2]
        assert all(os.path.exists(e["path"]) for e in ckpts)

        restarts = []
        sim_b = NaluWindSimulation("turbine_tiny")
        sim_b.world.hub.subscribe("restart", lambda **kw: restarts.append(kw))
        sim_b.transaction.restart(ring)
        assert restarts == [
            {
                "step": 2,
                "path": os.path.join(ring, FILE_PATTERN.format(step=2)),
                "source": "cold",
            }
        ]

    def test_config_validates_checkpoint_settings(self):
        with pytest.raises(ValueError):
            SimulationConfig(checkpoint_every=-1).validate()
        with pytest.raises(ValueError):
            SimulationConfig(checkpoint_keep=0).validate()
        with pytest.raises(ValueError):
            SimulationConfig(checkpoint_every=1, checkpoint_dir="").validate()
        SimulationConfig(
            checkpoint_every=1, checkpoint_dir="ring"
        ).validate()
