"""The multilevel partitioner's SciPy-product phases, kept as the reference.

Matching, coarsening and refinement as they were written with
``sparse.triu``, ``np.unique``, ``P.T @ A @ P`` and ``A[bnd] @ onehot``
(kept verbatim; do not optimize).  The package's CSR-array versions must
give the same aggregates, the same coarse CSR arrays and the same parts on
integer-weighted graphs (``tests/test_partition.py::TestAgainstReference``).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.partition.multilevel import (
    MAX_VERTEX_SHARE,
    MultilevelOptions,
    _deal_isolated,
    _drop_isolated,
    _initial_partition,
    _rebalance,
)


def heavy_edge_matching(
    A: sparse.csr_matrix, rng: np.random.Generator, max_rounds: int = 8
) -> np.ndarray:
    n = A.shape[0]
    coo = sparse.triu(A, k=1).tocoo()
    ei, ej, ew = coo.row, coo.col, coo.data
    matched = np.zeros(n, dtype=bool)
    mate = np.arange(n, dtype=np.int64)
    if ei.size:
        wmax = float(ew.max())
        for _ in range(max_rounds):
            active = ~matched[ei] & ~matched[ej]
            if not np.any(active):
                break
            prio = np.full(ei.size, -np.inf)
            u = rng.random(int(active.sum()))
            prio[active] = ew[active] + (1e-6 * wmax) * u
            vmax = np.full(n, -np.inf)
            np.maximum.at(vmax, ei, prio)
            np.maximum.at(vmax, ej, prio)
            win = active & (prio >= vmax[ei]) & (prio >= vmax[ej])
            wi, wj = ei[win], ej[win]
            if wi.size == 0:
                break
            matched[wi] = True
            matched[wj] = True
            mate[wj] = wi
    rep = np.minimum(mate, np.arange(n))
    _, agg = np.unique(rep, return_inverse=True)
    return agg


def coarsen(
    A: sparse.csr_matrix, vwgt: np.ndarray, agg: np.ndarray
) -> tuple[sparse.csr_matrix, np.ndarray]:
    nc = int(agg.max()) + 1
    n = A.shape[0]
    P = sparse.csr_matrix(
        (np.ones(n), (np.arange(n), agg)), shape=(n, nc)
    )
    Ac = (P.T @ A @ P).tocsr()
    Ac.setdiag(0.0)
    Ac.eliminate_zeros()
    vc = np.zeros(nc)
    np.add.at(vc, agg, vwgt)
    return Ac, vc


def refine(
    A: sparse.csr_matrix,
    vwgt: np.ndarray,
    parts: np.ndarray,
    nparts: int,
    passes: int = 6,
    tol: float = 0.05,
) -> np.ndarray:
    parts = parts.copy()
    n = A.shape[0]
    total = vwgt.sum()
    target = total / nparts
    cap = target * (1.0 + tol)
    part_w = np.zeros(nparts)
    np.add.at(part_w, parts, vwgt)

    for _ in range(passes):
        coo = A.tocoo()
        cut_mask = parts[coo.row] != parts[coo.col]
        if not np.any(cut_mask):
            break
        bnd = np.unique(
            np.concatenate([coo.row[cut_mask], coo.col[cut_mask]])
        )
        onehot = sparse.csr_matrix(
            (np.ones(n), (np.arange(n), parts)), shape=(n, nparts)
        )
        conn = np.asarray((A[bnd] @ onehot).todense())
        own = parts[bnd]
        internal = conn[np.arange(bnd.size), own]
        conn[np.arange(bnd.size), own] = -np.inf
        best_part = np.argmax(conn, axis=1)
        best_ext = conn[np.arange(bnd.size), best_part]
        gain = best_ext - internal
        movable = gain > 0
        if not np.any(movable):
            break
        cand = np.flatnonzero(movable)
        cand = cand[np.argsort(-gain[cand], kind="stable")]
        moved = 0
        for c in cand:
            v = bnd[c]
            p, q = parts[v], best_part[c]
            if p == q:
                continue
            if part_w[q] + vwgt[v] > cap:
                continue
            if part_w[p] - vwgt[v] < 0.25 * target:
                continue
            parts[v] = q
            part_w[p] -= vwgt[v]
            part_w[q] += vwgt[v]
            moved += 1
        if moved == 0:
            break
    return parts


def multilevel_partition(
    adjacency: sparse.spmatrix,
    nparts: int,
    vertex_weights: np.ndarray | None = None,
    options: MultilevelOptions | None = None,
) -> np.ndarray:
    """``repro.partition.multilevel_partition``'s level loop over the
    reference phases, between the package's own setting aside and dealing
    of the isolated vertices."""
    opt = options or MultilevelOptions()
    A = sparse.csr_matrix(adjacency, copy=True).astype(np.float64)
    A.setdiag(0.0)
    A.eliminate_zeros()
    n = A.shape[0]
    vwgt = (
        np.ones(n)
        if vertex_weights is None
        else np.asarray(vertex_weights, dtype=np.float64)
    )
    isolated = np.diff(A.indptr) == 0
    keep = np.flatnonzero(~isolated)
    parts = np.zeros(n, dtype=np.int64)
    if keep.size:
        parts[keep] = _levels(
            _drop_isolated(A, isolated), vwgt[keep], nparts, opt
        )
    return _deal_isolated(parts, vwgt, isolated, nparts)


def _levels(A, vwgt, nparts, opt):
    rng = np.random.default_rng(opt.seed)
    graphs = [A]
    weights = [vwgt]
    aggs: list[np.ndarray] = []
    target = max(opt.coarsest_size, 24 * nparts)
    heaviest = MAX_VERTEX_SHARE * opt.balance_tol * vwgt.sum() / nparts
    while graphs[-1].shape[0] > target and len(graphs) < opt.max_levels:
        agg = heavy_edge_matching(graphs[-1], rng)
        nc = int(agg.max()) + 1
        if nc >= graphs[-1].shape[0] * 0.95:
            break
        Ac, vc = coarsen(graphs[-1], weights[-1], agg)
        if vc.max() > heaviest:
            break
        graphs.append(Ac)
        weights.append(vc)
        aggs.append(agg)
    parts = _initial_partition(graphs[-1], weights[-1], nparts)
    parts = refine(
        graphs[-1], weights[-1], parts, nparts, opt.refine_passes, opt.balance_tol
    )
    for level in range(len(aggs) - 1, -1, -1):
        parts = parts[aggs[level]]
        parts = refine(
            graphs[level],
            weights[level],
            parts,
            nparts,
            opt.refine_passes,
            opt.balance_tol,
        )
    return _rebalance(A, vwgt, parts, nparts, opt.balance_tol)
