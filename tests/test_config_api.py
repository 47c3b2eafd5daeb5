"""Tests for the config serialization API (to_dict/from_dict, validate,
stable_hash) that ``repro.serialize`` derives from the dataclass fields."""

import dataclasses
import json
import os
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amg.hierarchy import AMGOptions
from repro.campaign import CampaignSpec, JobSpec, SupervisorPolicy
from repro.core.config import FaultSpec, SimulationConfig, SolverConfig
from repro.perf.machines import MACHINES
from repro.resilience.policy import RecoveryPolicy
from repro.serialize import canonical_json, schema, stable_digest
from tests.goldens import declared, produce

CONFIG_CLASSES = (
    SimulationConfig, SolverConfig, AMGOptions, RecoveryPolicy, FaultSpec,
    JobSpec, SupervisorPolicy,
)


def second_value(o):
    """A valid value of schema option ``o`` other than its default."""
    default = o.default
    if o.nested:
        if o.many:
            return (make(o.item),)
        inner = schema(o.item)[0]
        return dataclasses.replace(
            default, **{inner.name: second_value(inner)}
        )
    if o.choices is not None:
        other = next(c for c in o.choices if c != default)
        return (other,) if o.many else other
    if o.many:
        return tuple(v + 1.0 for v in default)
    if o.item is bool:
        return not default
    if o.item is int:
        return default + 1
    if o.item is float:
        top = o.bounds.get("lt", o.bounds.get("le"))
        return default + 1.0 if top is None else (default + top) / 2
    if o.item is dict:
        return {"nranks": 3}
    assert str in (o.item, *typing.get_args(o.item)), o
    return (default if isinstance(default, str) else "") + "x"


def make(cls):
    """An instance of a config class: defaults, required keys filled in."""
    required = {"kind": "io_fail", "workload": "turbine_tiny"}
    return cls(**{
        o.name: required[o.name]
        for o in schema(cls)
        if o.default is dataclasses.MISSING
    })


#: Where a cross-field rule narrows what the field alone allows.
CROSS_FIELD = {
    "SimulationConfig.profile_machine": st.sampled_from(sorted(MACHINES)),
    "SimulationConfig.checkpoint_dir": st.text(min_size=1),
    "FaultSpec.point": st.just(""),
}


def values(o):
    """Hypothesis strategy of the valid values of schema option ``o``."""
    if o.path in CROSS_FIELD:
        return CROSS_FIELD[o.path]
    if o.nested:
        one = configs(o.item)
        return st.lists(one, max_size=2).map(tuple) if o.many else one
    if o.choices is not None:
        one = st.sampled_from(sorted(o.choices))
        return st.lists(one, max_size=4).map(tuple) if o.many else one
    if o.item is bool:
        return st.booleans()
    if o.item is int:
        low = o.bounds.get("ge", 0)
        return st.integers(low, low + 10_000)
    if o.item is float:
        b = o.bounds
        one = st.floats(
            b.get("ge", b.get("gt", -1e9)), b.get("le", b.get("lt", 1e9)),
            exclude_min="gt" in b, exclude_max="lt" in b,
        )
        return st.tuples(one, one, one) if o.many else one
    if type(None) in typing.get_args(o.item):
        return st.none() | st.text()
    assert o.item is str, o
    return st.text()


def configs(cls):
    """Hypothesis strategy of whole, valid instances of a config class."""
    return st.builds(cls, **{o.name: values(o) for o in schema(cls)})


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
    @given(cfg=configs(SimulationConfig))
    def test_round_trip_property(self, cfg):
        doc = json.loads(json.dumps(cfg.to_dict()))
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

    def test_error_texts(self):
        with pytest.raises(ValueError, match=r"SimulationConfig\.dt: expected"):
            SimulationConfig.from_dict({"dt": "fast"})
        with pytest.raises(ValueError, match=r"SolverConfig\.tol: expected"):
            SimulationConfig.from_dict({"scalar_solver": {"tol": None}})
        with pytest.raises(ValueError, match="unknown config keys"):
            SimulationConfig.from_dict({"recovery": {"laddder": []}})
        with pytest.raises(ValueError, match="FaultSpec: missing key 'kind'"):
            SimulationConfig.from_dict({"faults": [{"at": 1}]})

    #: Values only the consuming constructor refused before the schema:
    #: AMGHierarchy, strength_matrix, orthogonalize, get_machine, TwoStageGS.
    REFUSED_AT_THE_DOOR = [
        {"amg": {"smoother": "bogus"}},
        {"amg": {"interp": "bogus"}},
        {"momentum_solver": {"gs_variant": "bogus"}},
        {"pressure_solver": {"gs_variant": "bogus"}},
        {"profile": True, "profile_machine": "bogus"},
        {"amg": {"theta": 1.0}},
        {"amg": {"theta": -0.25}},
        {"sgs_inner": -1},
        {"sgs_outer": 0},
    ]

    @pytest.mark.parametrize("doc", REFUSED_AT_THE_DOOR, ids=str)
    def test_consumer_checks_moved_to_the_door(self, doc):
        with pytest.raises(ValueError):
            SimulationConfig.from_dict(doc)
        cfg = SimulationConfig()
        for key, value in doc.items():
            if isinstance(value, dict):
                for inner, inner_value in value.items():
                    setattr(getattr(cfg, key), inner, inner_value)
            else:
                setattr(cfg, key, value)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_unused_profile_machine_is_not_checked(self):
        SimulationConfig.from_dict({"profile_machine": "anything"})


class TestStableHash:
    def test_key_order_insensitive(self):
        doc = SimulationConfig().to_dict()
        shuffled = dict(reversed(list(doc.items())))
        assert stable_digest(doc) == stable_digest(shuffled)
        assert canonical_json(doc) == canonical_json(shuffled)

    def test_every_field_moves_the_hash(self):
        runtime_only = []
        for cls in CONFIG_CLASSES:
            base = make(cls)
            seen = {base.stable_hash()}
            for o in schema(cls):
                value = second_value(o)
                o.check(value)
                h = dataclasses.replace(base, **{o.name: value}).stable_hash()
                assert h not in seen, f"{o.path} did not change the hash"
                seen.add(h)
            serialised = {o.name for o in schema(cls)}
            runtime_only += [
                f"{cls.__name__}.{f.name}"
                for f in dataclasses.fields(cls)
                if f.name not in serialised
            ]
        assert runtime_only == ["SimulationConfig.clock"]

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


def test_every_option_has_a_row_in_the_configuration_reference():
    path = os.path.join(
        os.path.dirname(__file__), "..", "docs", "configuration.md"
    )
    with open(path, encoding="utf-8") as fh:
        sections = fh.read().split("\n## ")
    for cls in (*CONFIG_CLASSES, CampaignSpec):
        (section,) = [
            sec for sec in sections if sec.startswith(f"`{cls.__name__}`")
        ]
        rows = {
            line.split("|")[1].strip(): line
            for line in section.splitlines()
            if line.startswith("| `")
        }
        for o in schema(cls):
            assert f"`{o.name}`" in rows, f"{o.path} has no row"
            for choice in o.choices or ():
                shown = choice or '""'
                assert f"`{shown}`" in rows[f"`{o.name}`"], o.path


# -- the config golden ------------------------------------------------------


def test_config_golden_reproduced_byte_for_byte(records):
    golden = "config_golden.json"
    assert produce(golden, records) == declared(golden)
