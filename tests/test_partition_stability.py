"""Determinism: the parts depend on the graph alone, and a run's results
on the job alone.

The multilevel partitioner's rebalance pass drains overloaded parts in
ascending vertex-weight order.  With quicksort the order of equal-weight
vertices depended on introsort pivot choices — i.e. on NumPy version and
platform — which made the final partition (and everything downstream:
rank numbering, assembly plans, telemetry) platform-dependent.  The
stable sort pins ties to index order; these tests pin that behavior.

Nor may anything move with the BLAS thread count: the initial bisection
asks for the Fiedler vector of connected graphs only, with its sign fixed,
and every Krylov inner product sums per-rank ``einsum`` partials in rank
order (``repro.linalg.parvector.global_dot``).  :func:`record_at` is the
suite's one child runner.
"""

import json
import os
import subprocess
import sys

import numpy as np
from scipy import sparse

from repro.partition.multilevel import _rebalance, multilevel_partition
from tests.goldens import PARTITIONS, ROOT


def _star_graph(n: int) -> sparse.csr_matrix:
    """Vertices 0..n-2 each adjacent to hub n-1 (symmetric)."""
    leaves = np.arange(n - 1)
    rows = np.concatenate([leaves, np.full(n - 1, n - 1)])
    cols = np.concatenate([np.full(n - 1, n - 1), leaves])
    return sparse.csr_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(n, n)
    )


class TestRebalanceStability:
    def test_tied_weights_drain_in_index_order(self):
        # Part 0 holds five unit-weight leaves (overloaded, cap = 3);
        # every leaf borders the hub in part 1, so all five are equally
        # movable.  Stable ordering means the two lowest-indexed leaves
        # move — any other outcome is an unstable tie-break.
        A = _star_graph(6)
        vwgt = np.ones(6)
        parts = np.array([0, 0, 0, 0, 0, 1])
        out = _rebalance(A, vwgt, parts, nparts=2, tol=0.0)
        assert out.tolist() == [1, 1, 0, 0, 0, 1]

    def test_rebalance_is_repeatable(self):
        rng = np.random.default_rng(7)
        n = 40
        g = sparse.random(
            n, n, density=0.2, random_state=np.random.RandomState(7)
        )
        A = ((g + g.T) > 0).astype(float).tocsr()
        # Heavily tied weights: only three distinct values over 40 nodes.
        vwgt = rng.integers(1, 4, size=n).astype(float)
        parts = rng.integers(0, 4, size=n)
        a = _rebalance(A, vwgt, parts, nparts=4, tol=0.1)
        b = _rebalance(A, vwgt, parts, nparts=4, tol=0.1)
        assert np.array_equal(a, b)

    def test_multilevel_partition_repeatable_with_tied_weights(self):
        rng = np.random.default_rng(3)
        n = 300
        g = sparse.random(
            n, n, density=0.03, random_state=np.random.RandomState(3)
        )
        A = ((g + g.T) > 0).astype(float).tocsr()
        vwgt = np.ones(n)  # fully tied
        a = multilevel_partition(A, 6, vertex_weights=vwgt)
        b = multilevel_partition(A, 6, vertex_weights=vwgt)
        assert np.array_equal(a, b)
        assert np.unique(a).size == 6


def record_at(threads: int, name: str):
    """The ``tests.goldens`` record ``name``, computed in a child
    interpreter whose BLAS runs ``threads`` threads."""
    path = (os.path.join(ROOT, "src"), ROOT, os.environ.get("PYTHONPATH"))
    env = {
        **os.environ,
        "OMP_NUM_THREADS": str(threads),
        "OPENBLAS_NUM_THREADS": str(threads),
        "MKL_NUM_THREADS": str(threads),
        "PYTHONPATH": os.pathsep.join(p for p in path if p),
    }
    code = (
        "import json, sys, tests.goldens as g; "
        "print(json.dumps(g.Records()[sys.argv[1]]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, name],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_parts_do_not_move_with_the_blas_thread_count():
    one, two = (record_at(t, "partition") for t in (1, 2))
    assert sorted(one) == sorted(
        f"{w}@{n}" for w, ranks in PARTITIONS.items() for n in ranks
    )
    assert one == two


def test_a_run_does_not_move_with_the_blas_thread_count():
    """``turbine_low``@12 for one step: the field digests, both ledgers,
    the step snapshots and every tally are equal at one and two threads.
    Its pressure vectors are 22 900 long, where ``dgemv`` splits."""
    one, two = (record_at(t, "thread_run") for t in (1, 2))
    assert one["fields"] == two["fields"]
    assert one == two
