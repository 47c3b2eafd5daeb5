"""Thrust-like data-parallel primitives with cost accounting.

The paper's global assembly (Algorithms 1 and 2) is written in terms of the
CUDA Thrust primitives ``stable_sort_by_key`` and ``reduce_by_key``, noting
that "other GPU architectures can be supported provided implementations
exist" for them (§3.3).  :func:`sort_reduce_by_key` is the one NumPy
implementation of that pair, with identical semantics; callers record the
data-motion cost of its GPU analogue next to the call (radix sort:
multiple full passes over keys+values; keyed reduction: two passes).
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


# repro: allow(RL005) — fused sort+reduce; callers charge it next to the
# call site (Stage 3: record_sort_cost + record_reduce_cost; the
# deterministic scatter: record_sort_cost as asm_det_sort).
def sort_reduce_by_key(
    keys: tuple[np.ndarray, ...], values: np.ndarray
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Stably sort ``values`` by key, then sum each equal-key run.

    The sort is lexicographic over ``keys`` (most-significant first, e.g.
    ``(i, j)``) and stable, so equal keys keep their input order and each
    run's sum is fixed by the input.  The sort permutation and the run
    starts are returned too, so a pattern-frozen
    :class:`~repro.assembly.plan.AssemblyPlan` can replay the value
    computation (``values[perm]`` followed by a segmented sum over
    ``starts``) without re-sorting.

    Args:
        keys: key arrays, most-significant first; at least one.
        values: payload array, same length.

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
