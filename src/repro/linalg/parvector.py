"""Distributed vectors in hypre's 1-D block-row layout.

A :class:`ParVector` stores the global array once (the simulator runs all
ranks in-process) and exposes zero-copy per-rank slices.  Reductions (dot,
norm) are performed as per-rank partials plus a recorded ``MPI_Allreduce``
— exactly the operations whose count the one-reduce GMRES variant
(paper §4.2, ref [39]) is designed to minimize.
"""

from __future__ import annotations

import numpy as np

from repro.comm.simcomm import SimWorld


class ParVector:
    """A block-row distributed vector with instrumented reductions."""

    def __init__(
        self, world: SimWorld, offsets: np.ndarray, data: np.ndarray | None = None
    ) -> None:
        self.world = world
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.n = int(self.offsets[-1])
        if data is None:
            data = np.zeros(self.n)
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (self.n,):
            raise ValueError(
                f"data shape {data.shape} does not match offsets ({self.n})"
            )
        self.data = data
        self._sizes: list[int] | None = None

    # -- construction helpers -------------------------------------------------

    def like(self, data: np.ndarray | None = None) -> "ParVector":
        """New vector on the same distribution."""
        v = ParVector(self.world, self.offsets, data)
        v._sizes = self._sizes
        return v

    def copy(self) -> "ParVector":
        """Deep copy."""
        return self.like(self.data.copy())

    # -- per-rank access --------------------------------------------------------

    def local(self, rank: int) -> np.ndarray:
        """Zero-copy view of rank's owned slice."""
        return self.data[self.offsets[rank] : self.offsets[rank + 1]]

    @property
    def sizes(self) -> list[int]:
        """Per-rank owned lengths.

        Derived once per distribution, not per operation: vectors made
        by :meth:`like` / :meth:`copy` share the list.
        """
        if self._sizes is None:
            self._sizes = np.diff(self.offsets).tolist()
        return self._sizes

    # -- instrumented BLAS-1 ------------------------------------------------------

    def _record_local(self, kernel: str, flops_per_entry: float, streams: int) -> None:
        sizes = self.sizes
        self.world.charge(
            kernel,
            [flops_per_entry * ln for ln in sizes],
            [8.0 * streams * ln for ln in sizes],
        )

    def axpy(self, alpha: float, x: "ParVector") -> "ParVector":
        """``self += alpha * x`` in place (2 flops/entry, 3 streams)."""
        self.data += alpha * x.data
        self._record_local("axpy", 2.0, 3)
        return self

    def scale(self, alpha: float) -> "ParVector":
        """``self *= alpha`` in place."""
        self.data *= alpha
        self._record_local("scal", 1.0, 2)
        return self

    def dot(self, other: "ParVector") -> float:
        """Global dot product: per-rank partials + one allreduce."""
        partials = [
            float(np.dot(self.local(r), other.local(r)))
            for r in range(self.world.size)
        ]
        self._record_local("dot", 2.0, 2)
        return float(self.world.allreduce(partials, sum))

    def norm(self) -> float:
        """Global 2-norm (costs one reduction, like a dot)."""
        return float(np.sqrt(max(self.dot(self), 0.0)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParVector(n={self.n}, ranks={self.world.size})"


def fused_dots(
    world: SimWorld, pairs: list[tuple["ParVector", "ParVector"]]
) -> np.ndarray:
    """Several global dot products paid for with **one** allreduce.

    The communication-avoiding primitive: per-rank partials of every
    requested pair are stacked into one small vector and reduced in a
    single batched ``MPI_Allreduce`` of ``len(pairs)`` scalars, instead
    of one reduction per dot.  Each scalar is the same left-to-right
    sum of the same per-rank partials :meth:`ParVector.dot` computes,
    so the fused results are bitwise identical to the sequential ones.
    """
    if not pairs:
        return np.zeros(0)
    k = len(pairs)
    world_size = world.size
    partials = [
        np.array(
            [float(np.dot(a.local(r), b.local(r))) for a, b in pairs],
            dtype=np.float64,
        )
        for r in range(world_size)
    ]
    # Per-rank compute share: k simultaneous dots stream 2k vectors.
    sizes = pairs[0][0].sizes
    world.charge(
        "multidot",
        [2.0 * k * ln for ln in sizes],
        [8.0 * 2 * k * ln for ln in sizes],
    )
    return np.asarray(world.allreduce(partials, sum), dtype=np.float64)
