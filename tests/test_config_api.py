"""Tests for the SimulationConfig serialization API (to_dict/from_dict,
stable_hash) introduced for the campaign service."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FaultSpec, SimulationConfig, SolverConfig
from repro.serialize import canonical_json, stable_digest


class TestRoundTrip:
    def test_default_config_fixpoint(self):
        cfg = SimulationConfig()
        doc = cfg.to_dict()
        again = SimulationConfig.from_dict(doc)
        assert again.to_dict() == doc

    def test_round_trip_preserves_equality(self):
        cfg = SimulationConfig(nranks=3, picard_iterations=2, dt=0.25)
        cfg.pressure_solver.method = "cg"
        cfg.amg.theta = 0.5
        again = SimulationConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_faults_round_trip(self):
        cfg = SimulationConfig(
            faults=[FaultSpec(kind="message_drop", at=1)]
        )
        again = SimulationConfig.from_dict(cfg.to_dict())
        assert tuple(again.faults) == tuple(cfg.faults)

    def test_doc_is_json_serializable(self):
        doc = SimulationConfig().to_dict()
        assert json.loads(json.dumps(doc)) == doc

    def test_absent_keys_take_defaults(self):
        cfg = SimulationConfig.from_dict({"nranks": 2})
        ref = SimulationConfig(nranks=2)
        assert cfg == ref

    def test_nested_solver_merge_with_defaults(self):
        cfg = SimulationConfig.from_dict(
            {"pressure_solver": {"overlap": True}}
        )
        assert cfg.pressure_solver.overlap is True
        # Unspecified nested keys keep the owning field's defaults — for
        # pressure tighter than SolverConfig()'s, so a partial override
        # must not loosen the solve.
        assert (cfg.pressure_solver.tol, cfg.pressure_solver.max_iters) == (
            1e-6,
            300,
        )
        cfg.pressure_solver.overlap = False
        assert cfg == SimulationConfig()
        assert cfg.stable_hash() == SimulationConfig().stable_hash()
        cfg = SimulationConfig.from_dict({"momentum_solver": {"method": "cg"}})
        assert cfg.momentum_solver == SolverConfig(method="cg")

    @settings(max_examples=25, deadline=None)
    @given(
        nranks=st.integers(1, 8),
        picard=st.integers(1, 4),
        dt=st.floats(1e-4, 1.0, allow_nan=False),
        relax=st.floats(0.1, 1.0, allow_nan=False),
        seed=st.integers(0, 10_000),
    )
    def test_round_trip_property(self, nranks, picard, dt, relax, seed):
        cfg = SimulationConfig(
            nranks=nranks,
            picard_iterations=picard,
            dt=dt,
            velocity_relax=relax,
            world_seed=seed,
        )
        doc = cfg.to_dict()
        again = SimulationConfig.from_dict(doc)
        assert again == cfg
        assert again.to_dict() == doc
        assert again.stable_hash() == cfg.stable_hash()


class TestStrictness:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SimulationConfig.from_dict({"granks": 2})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig.from_dict({"amg": {"bogus": 1}})

    def test_bool_is_not_int(self):
        with pytest.raises(ValueError):
            SimulationConfig.from_dict({"nranks": True})

    def test_int_accepted_for_float(self):
        cfg = SimulationConfig.from_dict({"dt": 1})
        assert cfg.dt == 1.0 and isinstance(cfg.dt, float)

    def test_validation_still_applies(self):
        with pytest.raises(ValueError):
            SimulationConfig.from_dict({"nranks": 0})
        with pytest.raises(ValueError):
            SimulationConfig.from_dict({"world_seed": -1})

    def test_runtime_clock_not_serializable(self):
        cfg = SimulationConfig(clock=lambda: 0.0)
        with pytest.raises(ValueError, match="clock"):
            cfg.to_dict()

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig.from_dict([("nranks", 2)])


class TestStableHash:
    def test_key_order_insensitive(self):
        doc = SimulationConfig().to_dict()
        shuffled = dict(reversed(list(doc.items())))
        assert stable_digest(doc) == stable_digest(shuffled)
        assert canonical_json(doc) == canonical_json(shuffled)

    def test_every_field_moves_the_hash(self):
        base = SimulationConfig()
        base_hash = base.stable_hash()
        # A representative mutation per field category.
        mutations = {
            "nranks": 7,
            "dt": 0.123,
            "partition_method": "rcb",
            "assembly_variant": "general",
            "inflow_velocity": (9.0, 0.0, 0.0),
            "world_seed": 99,
            "checkpoint_every": 5,
        }
        seen = {base_hash}
        for field, value in mutations.items():
            cfg = dataclasses.replace(base, **{field: value})
            h = cfg.stable_hash()
            assert h not in seen, f"{field} did not change the hash"
            seen.add(h)

    def test_nested_field_moves_the_hash(self):
        a = SimulationConfig()
        b = SimulationConfig()
        b.amg.theta = 0.9
        assert a.stable_hash() != b.stable_hash()

    def test_exclude_durability_keys(self):
        a = SimulationConfig()
        b = SimulationConfig(
            checkpoint_every=3, checkpoint_dir="elsewhere", checkpoint_keep=9
        )
        ex = SimulationConfig.DURABILITY_KEYS
        assert a.stable_hash() != b.stable_hash()
        assert a.stable_hash(exclude=ex) == b.stable_hash(exclude=ex)

    def test_solver_config_hash(self):
        a = SolverConfig()
        b = SolverConfig(tol=1e-3)
        assert a.stable_hash() != b.stable_hash()
        assert a.stable_hash() == SolverConfig().stable_hash()
