"""Thrust-like data-parallel primitives with cost accounting.

The paper's global assembly (Algorithms 1 and 2) is written in terms of the
CUDA Thrust primitives ``stable_sort_by_key`` and ``reduce_by_key``, noting
that "other GPU architectures can be supported provided implementations
exist" for them (§3.3).  These NumPy implementations have identical
semantics; each records the data-motion cost of its GPU analogue (radix
sort: multiple full passes over keys+values; keyed reduction: two passes).
"""

from __future__ import annotations

import numpy as np

from repro.comm.simcomm import SimWorld

#: Radix-sort pass count for 64-bit keys at 8 bits/pass.
_SORT_PASSES = 8


def record_sort_cost(
    world: SimWorld, rank: int, n: int, value_bytes: int, kernel: str = "sort"
) -> None:
    """Record the device cost of a stable radix sort of ``n`` pairs."""
    if n == 0:
        return
    per_pass = (8.0 + value_bytes) * 2.0  # read + write of key and payload
    world.charge(
        kernel,
        nbytes=_SORT_PASSES * per_pass * n,
        launches=_SORT_PASSES,
        ranks=[rank],
    )


def record_reduce_cost(
    world: SimWorld, rank: int, n: int, value_bytes: int, kernel: str = "reduce"
) -> None:
    """Record the device cost of a keyed reduction over ``n`` pairs."""
    if n == 0:
        return
    world.charge(
        kernel,
        float(n),
        2.0 * (8.0 + value_bytes) * n,
        launches=2,
        ranks=[rank],
    )


# repro: allow(RL005) — called from the IJ facade's host-side staging only;
# the device sort of the staged entries is charged when Algorithm 1/2
# consumes them (record_sort_cost: asm_sort/vec_sort at assemble()).
def stable_sort_by_key(
    keys: tuple[np.ndarray, ...], values: np.ndarray
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Sort ``values`` (and keys) by lexicographic key order, stably.

    Args:
        keys: key arrays, most-significant first (e.g. ``(i, j)``).
        values: payload array, same length.

    Returns:
        ``(sorted_keys, sorted_values)``.
    """
    if not keys:
        raise ValueError("need at least one key array")
    order = np.lexsort(tuple(reversed(keys)))
    return tuple(k[order] for k in keys), values[order]


# repro: allow(RL005) — as stable_sort_by_key: IJ staging only, charged at
# assemble() (record_reduce_cost: asm_reduce).
def reduce_by_key(
    keys: tuple[np.ndarray, ...], values: np.ndarray
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Sum consecutive equal-key runs (input must be key-sorted).

    Args:
        keys: sorted key arrays, most-significant first.
        values: payload to sum within runs.

    Returns:
        ``(unique_keys, summed_values)``.
    """
    n = values.size
    if n == 0:
        return tuple(k[:0] for k in keys), values[:0]
    new_run = np.zeros(n, dtype=bool)
    new_run[0] = True
    for k in keys:
        new_run[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(new_run)
    summed = np.add.reduceat(values, starts)
    return tuple(k[starts] for k in keys), summed


# repro: allow(RL005) — fused sort+reduce; callers charge both halves via
# record_sort_cost + record_reduce_cost next to the call site.
def sort_reduce_by_key(
    keys: tuple[np.ndarray, ...], values: np.ndarray
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Fused ``stable_sort_by_key`` + ``reduce_by_key``, exposing the plan.

    Performs the exact same operations as the two primitives chained, but
    additionally returns the sort permutation and the reduce segment
    starts so a pattern-frozen :class:`~repro.assembly.plan.AssemblyPlan`
    can replay the value computation (``values[perm]`` followed by a
    segmented sum over ``starts``) without re-sorting.

    Returns:
        ``(unique_keys, summed_values, perm, starts)``.
    """
    if not keys:
        raise ValueError("need at least one key array")
    perm = np.lexsort(tuple(reversed(keys)))
    sorted_keys = tuple(k[perm] for k in keys)
    n = values.size
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return tuple(k[:0] for k in keys), values[:0], perm, empty
    new_run = np.zeros(n, dtype=bool)
    new_run[0] = True
    for k in sorted_keys:
        new_run[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(new_run)
    summed = np.add.reduceat(values[perm], starts)
    return tuple(k[starts] for k in sorted_keys), summed, perm, starts
