"""Strict config (de)serialization derived from the dataclass fields, and
canonical hashing.

An option is one field.  A config dataclass (``SimulationConfig``,
``SolverConfig``, ``AMGOptions``, ``RecoveryPolicy``, ``FaultSpec``,
``JobSpec``, ``CampaignSpec``, ``SupervisorPolicy``) subclasses
:class:`Config` and declares each option once: annotation, default and, if
enumerated or bounded, ``field(metadata=...)`` naming the owning module's
tuple (``"choices"``) or a bound (``"ge"``, ``"gt"``, ``"le"``, ``"lt"``);
``"runtime": True`` marks a field with no
serialised form.  ``to_dict()`` / ``from_dict()`` / ``validate()`` /
``stable_hash()`` read the class's :func:`schema`.  The contract is strict
— this dict is the campaign cache key, so silent coercion or
silently-dropped keys would alias distinct configurations:

* unknown keys raise ``ValueError`` (no typo falls back to a default);
* every value is type-checked with the exact JSON-compatible kind the
  field declares (``bool`` is *not* an ``int`` here);
* ``int`` is accepted where ``float`` is declared (JSON writers emit
  ``1`` for ``1.0``) and normalized to ``float``;
* a nested block merges over the owning field's default, and a value
  outside its field's choices or bounds is refused here, not by the
  constructor that would finally consume it.

:func:`stable_digest` is the canonical content hash: sorted-key,
separator-free JSON, SHA-256.  Two dicts that differ only in key order
digest identically; any value change changes the digest.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import operator
import typing
from typing import Any, Callable

Parser = Callable[[Any, str], Any]


def canonical_json(doc: Any) -> str:
    """Canonical JSON text: sorted keys, compact separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def stable_digest(doc: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``doc``."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def _expected(path: str, expected: str, value: Any) -> ValueError:
    kind = type(value).__name__
    return ValueError(f"{path}: expected {expected}, got {kind} ({value!r})")


def as_bool(value: Any, path: str) -> bool:
    """A real bool (``0``/``1`` are rejected: they round-trip as ints)."""
    if not isinstance(value, bool):
        raise _expected(path, "bool", value)
    return value


def as_int(value: Any, path: str) -> int:
    """An int; bool is explicitly rejected despite being an int subtype."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise _expected(path, "int", value)
    return int(value)


def as_float(value: Any, path: str) -> float:
    """A float; ints are accepted (JSON writes ``1.0`` as ``1``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _expected(path, "float", value)
    return float(value)


def as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise _expected(path, "str", value)
    return value


def as_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise _expected(path, "mapping", value)
    return value


def strict_kwargs(
    cls_name: str, data: Any, parsers: dict[str, Parser]
) -> dict[str, Any]:
    """Parse ``data`` into constructor kwargs, strictly.

    Unknown keys raise (listing both the offenders and the accepted
    keys); each present key runs through its declared parser.  Absent
    keys are simply omitted so dataclass defaults apply.
    """
    as_mapping(data, cls_name)
    unknown = sorted(set(data) - set(parsers))
    if unknown:
        raise ValueError(
            f"{cls_name}: unknown config keys {unknown}; "
            f"accepted keys: {sorted(parsers)}"
        )
    return {
        key: parsers[key](value, f"{cls_name}.{key}")
        for key, value in data.items()
    }


_SCALARS: dict[Any, Parser] = {
    bool: as_bool, int: as_int, float: as_float, str: as_str, dict: as_mapping,
}

#: Field-metadata keys that bound a value, with the comparison they assert.
_BOUNDS = {
    "ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
    "le": (operator.le, "<="), "lt": (operator.lt, "<"),
}


def _is_config(hint: Any) -> bool:
    return isinstance(hint, type) and issubclass(hint, Config)


def _parser(hint: Any, default: Any) -> Parser:
    """The strict parser an annotation declares."""
    if hint in _SCALARS:
        return _SCALARS[hint]
    if _is_config(hint):
        # A partial block overrides the owning field's default (the
        # pressure solver's tol/max_iters are not SolverConfig()'s).
        base = {} if default is dataclasses.MISSING else default.to_dict()
        return lambda v, path: hint.from_dict({**base, **as_mapping(v, path)})
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if type(None) in args:  # ``X | None``
        (inner,) = (a for a in args if a is not type(None))
        parse = _parser(inner, dataclasses.MISSING)
        return lambda v, path: None if v is None else parse(v, path)
    if origin is tuple:
        parse = _parser(args[0], dataclasses.MISSING)
        n = None if args[-1] is Ellipsis else len(args)
        what = f"list of {args[0].__name__}" + (f" x {n}" if n else "")

        def parse_tuple(value: Any, path: str) -> tuple:
            if not isinstance(value, (list, tuple)) or (
                n is not None and len(value) != n
            ):
                raise _expected(path, what, value)
            return tuple(parse(v, f"{path}[{i}]") for i, v in enumerate(value))

        return parse_tuple
    raise TypeError(f"no strict JSON form for annotation {hint!r}")


@dataclasses.dataclass(frozen=True)
class Option:
    """One serialised option of a config class (a row of :func:`schema`)."""

    name: str  #: field name = JSON key
    path: str  #: ``Class.name``, as error messages spell it
    many: bool  #: annotated ``tuple[...]``; values are checked element-wise
    item: Any  #: annotation of one value: ``int``, ``str | None``, a Config
    nested: bool  #: ``item`` is a :class:`Config` subclass
    default: Any  #: ``dataclasses.MISSING`` when the key is required
    choices: Any  #: the owning module's collection of allowed values, or None
    bounds: dict[str, float]  #: ``{"ge" | "gt" | "le" | "lt": bound}``

    def dump(self, value: Any) -> Any:
        """Field value -> JSON-shaped value."""
        if self.many:
            return [v.to_dict() for v in value] if self.nested else list(value)
        return value.to_dict() if self.nested else value

    def check(self, value: Any) -> None:
        """Raise unless ``value`` is inside the field's declaration."""
        for item in value if self.many else (value,):
            if self.nested:
                item.validate()
            elif self.item is bool and not isinstance(item, bool):
                raise _expected(self.path, "bool", item)
            elif self.choices is not None and item not in self.choices:
                allowed = f"one of {tuple(self.choices)}"
                raise _expected(self.path, allowed, item)
            for key, bound in self.bounds.items():
                holds, symbol = _BOUNDS[key]
                if not holds(item, bound):
                    within = f"a value {symbol} {bound}"
                    raise _expected(self.path, within, item)


@functools.cache
def _tables(cls: type) -> tuple:
    """``(options, their parsers by key, runtime-only field names)`` of a
    config class, built once per class."""
    hints = typing.get_type_hints(cls)
    options, parsers, runtime = [], {}, []
    for f in dataclasses.fields(cls):
        meta = dict(f.metadata)
        if meta.pop("runtime", False):
            runtime.append(f.name)
            continue
        choices = meta.pop("choices", None)
        if set(meta) - set(_BOUNDS):
            raise TypeError(f"{cls.__name__}.{f.name}: bad metadata {meta}")
        factory = f.default_factory
        default = f.default if factory is dataclasses.MISSING else factory()
        hint = hints[f.name]
        many = typing.get_origin(hint) is tuple
        item = typing.get_args(hint)[0] if many else hint
        parsers[f.name] = _parser(hint, default)
        options.append(
            Option(f.name, f"{cls.__name__}.{f.name}", many, item,
                   _is_config(item), default, choices, meta)
        )
    return tuple(options), parsers, tuple(runtime)


def schema(cls: type) -> tuple[Option, ...]:
    """The serialised options of a config class, in field order."""
    return _tables(cls)[0]


class Config:
    """Base of the config dataclasses.  A subclass overrides
    :meth:`validate` only for rules that tie several fields together, and
    calls ``super().validate()`` first."""

    def to_dict(self) -> dict:
        """JSON-shaped dict of every serialised option (round-trip form)."""
        options, _parsers, runtime = _tables(type(self))
        for name in runtime:
            if getattr(self, name) is not None:
                raise ValueError(f"runtime-only {name!r} cannot be serialized")
        return {o.name: o.dump(getattr(self, o.name)) for o in options}

    @classmethod
    def from_dict(cls, data: dict):
        """Strictly-validated inverse of :meth:`to_dict`: unknown, mistyped
        and missing required keys raise ``ValueError``, absent keys take the
        dataclass defaults, and the result is :meth:`validate`-d."""
        options, parsers, _runtime = _tables(cls)
        kwargs = strict_kwargs(cls.__name__, data, parsers)
        for o in options:
            if o.default is dataclasses.MISSING and o.name not in kwargs:
                raise ValueError(f"{cls.__name__}: missing key {o.name!r}")
        config = cls(**kwargs)
        config.validate()
        return config

    def validate(self) -> None:
        """Raise ``ValueError`` on a value outside its field's declared
        choices or bounds (nested configs included)."""
        for o in schema(type(self)):
            o.check(getattr(self, o.name))

    def stable_hash(self, exclude: tuple[str, ...] = ()) -> str:
        """Canonical content digest (:func:`stable_digest` of ``to_dict()``
        minus the top-level keys in ``exclude``)."""
        doc = self.to_dict()
        for key in exclude:
            doc.pop(key, None)
        return stable_digest(doc)
