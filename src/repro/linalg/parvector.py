"""Distributed vectors in hypre's 1-D block-row layout.

A :class:`ParVector` stores the global array once (the simulator runs all
ranks in-process) and exposes zero-copy per-rank slices.  Every global
inner product in the package is one :func:`global_dot`: per-rank partials
summed in rank order, the arithmetic of the recorded ``MPI_Allreduce`` —
exactly the operations whose count the one-reduce GMRES variant (paper
§4.2, ref [39]) is designed to minimize.
"""

from __future__ import annotations

import numpy as np

from repro.comm.simcomm import SimWorld


def global_dot(x: np.ndarray, y: np.ndarray, offsets) -> np.ndarray:
    """``x^T y`` as a distributed code computes it: each rank's partial
    on its own row block ``offsets[r]:offsets[r + 1]``, then the partials
    summed in rank order.  ``x`` is a vector (one dot) or an ``(n, k)``
    block of columns (``k`` dots).

    Charges nothing: the caller charges the kernel and the allreduce.
    The partials are ``einsum`` without BLAS, whose bits do not depend on
    the thread count; ``np.dot`` and ``@`` split a long sum across
    OpenBLAS threads, so their bits do.
    """
    spec = "ij,i->j" if x.ndim == 2 else "i,i->"
    total = 0.0
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        total = total + np.einsum(spec, x[lo:hi], y[lo:hi], optimize=False)
    return total


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
        self._record_local("dot", 2.0, 2)
        self.world.collective("allreduce", 8)
        return float(global_dot(self.data, other.data, self.offsets))

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
    of one reduction per dot.  Each scalar is the :func:`global_dot`
    :meth:`ParVector.dot` computes, so the fused results are bitwise
    identical to the sequential ones.
    """
    if not pairs:
        return np.zeros(0)
    k = len(pairs)
    out = np.array([global_dot(a.data, b.data, a.offsets) for a, b in pairs])
    # Per-rank compute share: k simultaneous dots stream 2k vectors.
    sizes = pairs[0][0].sizes
    world.charge(
        "multidot",
        [2.0 * k * ln for ln in sizes],
        [8.0 * 2 * k * ln for ln in sizes],
    )
    world.collective("allreduce", 8 * k)
    return out
