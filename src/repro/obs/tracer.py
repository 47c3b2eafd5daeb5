"""Hierarchical wall-clock spans.

A :class:`Span` is one timed interval with a name, optional attributes,
and child spans; a :class:`Tracer` maintains the currently-open span
stack and the forest of completed roots.  Span start times are stored
relative to the tracer's epoch so exported timelines are stable across
processes (``time.perf_counter`` has an arbitrary zero).

Every :class:`~repro.comm.simcomm.SimWorld` owns one tracer:
``SimWorld.phase_scope`` opens each phase's span on it and reads the flat
per-phase totals off the closed span's ``duration``, so the totals and the
nested timeline the trace exporter renders are one measurement.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One timed interval in the span tree.

    Attributes:
        name: span label (phase labels reuse ``<equation>/<phase>``).
        start: seconds since the tracer epoch when the span opened.
        duration: elapsed seconds (0.0 while still open).
        attrs: free-form attributes attached at open time.
        children: completed sub-spans, in open order.
    """

    name: str
    start: float
    duration: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def end(self) -> float:
        """Seconds since the tracer epoch when the span closed."""
        return self.start + self.duration

    def self_time(self) -> float:
        """Duration not covered by direct children."""
        return max(self.duration - sum(c.duration for c in self.children), 0.0)

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "Span"]]:
        """Depth-first traversal yielding ``(depth, span)``."""
        yield depth, self
        for c in self.children:
            yield from c.walk(depth + 1)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready nested representation."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output."""
        return cls(
            name=d["name"],
            start=float(d["start"]),
            duration=float(d["duration"]),
            attrs=dict(d.get("attrs", {})),
            children=[cls.from_dict(c) for c in d.get("children", [])],
        )


class Tracer:
    """Collects a forest of nested spans.

    Args:
        clock: monotonic time source (injectable for deterministic tests).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @property
    def depth(self) -> int:
        """Number of currently-open spans."""
        return len(self._stack)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a child span of the current one for the enclosed block."""
        s = Span(name=name, start=self._clock() - self._epoch, attrs=attrs)
        parent = self.current
        if parent is not None:
            parent.children.append(s)
        else:
            self.roots.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.duration = (self._clock() - self._epoch) - s.start
            popped = self._stack.pop()
            if popped is not s:  # pragma: no cover - structural invariant
                raise RuntimeError(
                    f"span stack corrupted: closed {popped.name!r} while "
                    f"ending {s.name!r}"
                )

    # -- aggregate views -----------------------------------------------------

    def walk(self) -> Iterator[tuple[int, Span]]:
        """Depth-first traversal over all completed roots."""
        for r in self.roots:
            yield from r.walk()

    def totals(self) -> dict[str, float]:
        """Accumulated seconds per span name (over the whole forest)."""
        out: dict[str, float] = {}
        for _d, s in self.walk():
            out[s.name] = out.get(s.name, 0.0) + s.duration
        return out

    def counts(self) -> dict[str, int]:
        """Number of completed spans per name."""
        out: dict[str, int] = {}
        for _d, s in self.walk():
            out[s.name] = out.get(s.name, 0) + 1
        return out

    def find(self, name: str) -> list[Span]:
        """All spans with ``name``, in traversal order."""
        return [s for _d, s in self.walk() if s.name == name]

    def to_dicts(self) -> list[dict[str, Any]]:
        """JSON-ready list of root span trees."""
        return [r.to_dict() for r in self.roots]
