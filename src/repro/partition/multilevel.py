"""Multilevel k-way graph partitioner (the ParMETIS substitute).

The paper introduced ParMETIS-based mesh rebalancing to fix RCB's imbalance
(§5.1); we reproduce the property it relies on — nonzero-balanced, compact,
graph-aware parts — with the classic multilevel scheme ParMETIS itself uses:

1. **Set aside** the isolated vertices (an overset mesh's hole nodes carry
   no active edge); they are dealt to the lightest parts at the end,
2. **Coarsen** by heavy-edge matching until the graph is small, or until
   one more level would hold a vertex too heavy to bisect near the target
   weights (:data:`MAX_VERTEX_SHARE`),
3. **Initial partition** the coarsest graph by recursive bisection: whole
   components are packed toward each side's target weight and only the
   component that straddles it is split, at the weighted target of its
   Fiedler vector,
4. **Uncoarsen** and apply rounds of boundary Kernighan-Lin/FM-style
   refinement at every level.

Vertex weights (row nonzeros when partitioning a matrix graph) are balanced;
edge weights guide the matching and the cut.

Matching is vectorized: rounds of mutual-heaviest-neighbor proposals (a
Luby-style symmetric-proposal scheme) instead of a sequential greedy sweep.
Refinement keeps its sequential greedy move loop, over the few boundary
vertices whose gains a pass can change.

The parts are a pure function of the canonical (sorted, duplicate-free,
structurally symmetric) CSR graph, the vertex weights and the seed: the
matching draws its tie-breaks for the edges in stored order, the coarse
graphs are canonical CSR whose integer-valued weights sum exactly in any
order, and refinement sums each row's weights per part in stored order.
A Fiedler vector is only ever asked of a connected graph, where it is
unique up to its sign, and the sign is fixed; so the parts do not move
with the BLAS thread count.  Only that vector costs more than linear time:
a dense subset eigensolve on small graphs, ``lobpcg`` on larger ones.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import lobpcg

#: Largest graph whose Fiedler vector a dense subset ``eigh`` computes;
#: above it ``lobpcg`` does, and no dense Laplacian is formed.
DENSE_FIEDLER_MAX = 1000
#: Decimals kept of the Fiedler vector scaled to a largest magnitude of 1.
FIEDLER_DECIMALS = 9
#: Coarsening stops before a level whose heaviest vertex outweighs this
#: share of a part's balance tolerance (``balance_tol`` times a part's
#: weight), so a bisection of the coarsest graph can cut close to its
#: target weight.
MAX_VERTEX_SHARE = 0.5


def _csr_rows(A: sparse.csr_matrix) -> np.ndarray:
    """Row index of every stored entry of ``A``."""
    return np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))


def heavy_edge_matching(
    A: sparse.csr_matrix, rng: np.random.Generator, max_rounds: int = 8
) -> np.ndarray:
    """Heavy-edge matching via Luby-style edge local maxima.

    Each round assigns every active edge a priority = (weight, random
    tie-break); an edge is matched when it is the top-priority active edge
    at *both* endpoints (a maximal-matching analogue of Luby's MIS, which is
    also how PMIS breaks ties — paper §4.1).  Rounds repeat on the still
    unmatched remainder, so the scheme is fully vectorized yet matches a
    large fraction of vertices.

    Returns:
        ``(n,)`` aggregate labels in ``[0, n_coarse)``; matched pairs share a
        label, unmatched vertices get their own.
    """
    n = A.shape[0]
    # The strict upper triangle in stored order: the edge order, and so
    # which edge each random draw lands on, is fixed by the CSR arrays.
    row = _csr_rows(A)
    col = A.indices.astype(np.intp, copy=False)
    upper = np.flatnonzero(col > row)
    ei, ej, ew = row[upper], col[upper], A.data[upper]
    matched = np.zeros(n, dtype=bool)
    mate = np.arange(n, dtype=np.int64)
    if ei.size:
        wmax = float(ew.max())
        for _ in range(max_rounds):
            # Matched vertices stay matched, so only the edges with both
            # endpoints free stay active; they keep their order, and with
            # it their random draws.
            free = np.flatnonzero(~(matched[ei] | matched[ej]))
            if free.size < ei.size:
                ei, ej, ew = ei[free], ej[free], ew[free]
            if ei.size == 0:
                break
            # Distinct priorities: heavy edges first, random tie-break.
            prio = ew + (1e-6 * wmax) * rng.random(ei.size)
            vmax = np.full(n, -np.inf)
            np.maximum.at(vmax, ei, prio)
            np.maximum.at(vmax, ej, prio)
            win = np.flatnonzero((prio >= vmax[ei]) & (prio >= vmax[ej]))
            if win.size == 0:
                break
            wi, wj = ei[win], ej[win]
            matched[wi] = True
            matched[wj] = True
            mate[wj] = wi
    # Compress to contiguous aggregate ids (representative = min of pair),
    # numbering the representatives in ascending order.
    rep = np.minimum(mate, np.arange(n))
    present = np.zeros(n, dtype=bool)
    present[rep] = True
    return (np.cumsum(present) - 1)[rep]


def _coarsen(A: sparse.csr_matrix, agg: np.ndarray) -> sparse.csr_matrix:
    """Build the coarse graph induced by an aggregation (the caller sums
    its vertex weights, to stop before building a graph too coarse).

    One COO aggregation of the edges between distinct aggregates into
    canonical CSR (sorted, duplicates summed, no diagonal).  Edge and vertex
    weights are integer-valued here, so the sums are exact in any order.
    """
    nc = int(agg.max()) + 1
    ar = agg[_csr_rows(A)]
    ac = agg[A.indices]
    off = ar != ac
    return sparse.coo_matrix(
        (A.data[off], (ar[off], ac[off])), shape=(nc, nc)
    ).tocsr()


def _fiedler(A: sparse.csr_matrix) -> np.ndarray:
    """Fiedler vector of a connected graph, scaled to a largest magnitude
    of 1, rounded to :data:`FIEDLER_DECIMALS` decimals, and signed so that
    its first entry (in vertex order) of magnitude at least 1/2 is
    positive.

    The sign is read off a large entry, not the largest: a symmetric graph
    has its largest magnitude at two ends of opposite sign, and which of
    the two comes out larger would be decided by the eigensolver's error.
    The rounding keeps the exact ties of a symmetric graph tied under
    round-off, so the stable sort of the vertices does not depend on it.

    A subset ``eigh`` of the dense Laplacian computes it up to
    :data:`DENSE_FIEDLER_MAX` vertices; above that, ``lobpcg`` from a
    seeded start, orthogonal to the constants, on the sparse Laplacian.
    """
    n = A.shape[0]
    deg = np.asarray(A.sum(axis=1)).ravel()
    if n <= DENSE_FIEDLER_MAX:
        L = -A.toarray()
        L[np.diag_indices(n)] = deg
        v = linalg.eigh(L, subset_by_index=[1, 1])[1][:, 0]
    else:
        L = (sparse.diags(deg) - A).tocsr()
        X = np.random.default_rng(0).standard_normal((n, 4))
        with warnings.catch_warnings():
            # An unconverged iterate still orders the vertices usefully.
            warnings.simplefilter("ignore", UserWarning)
            vals, vecs = lobpcg(
                L, X, M=sparse.diags(1.0 / deg), Y=np.ones((n, 1)),
                tol=1e-6, maxiter=200, largest=False,
            )
        v = vecs[:, np.argmin(vals)]
    v = np.round(v / np.abs(v).max(), FIEDLER_DECIMALS)
    if v[np.argmax(np.abs(v) >= 0.5)] < 0:
        v = -v
    return v


def _bisect(
    A: sparse.csr_matrix, vwgt: np.ndarray, ratio: float
) -> np.ndarray:
    """Bisect a graph at the weight fraction ``ratio``.

    Whole components are packed toward the target weight, heaviest first
    (ties by lowest vertex id); only the component that straddles the
    target is ordered by its Fiedler vector.  The cut then falls on the
    prefix of that order whose weight is closest to the target, with at
    least one vertex on each side.

    Args:
        A: symmetric weighted adjacency.
        vwgt: vertex weights to balance.
        ratio: weight fraction assigned to side 0.

    Returns:
        boolean array, True for side 1.
    """
    n = A.shape[0]
    if n <= 2:
        return np.arange(n) >= max(1, round(n * ratio))
    # Components are labelled in order of their lowest vertex id.
    ncomp, label = connected_components(A, directed=False)
    comp_w = np.bincount(label, weights=vwgt, minlength=ncomp)
    packing = np.lexsort((np.arange(ncomp), -comp_w))
    rank = np.empty(ncomp, dtype=np.int64)
    rank[packing] = np.arange(ncomp)
    order = np.argsort(rank[label], kind="stable")
    target = vwgt.sum() * ratio
    ends = np.cumsum(comp_w[packing])
    j = int(np.searchsorted(ends, target, side="right"))
    if j < ncomp and (j == 0 or ends[j - 1] < target):
        stops = np.cumsum(np.bincount(label, minlength=ncomp)[packing])
        seg = slice(stops[j - 1] if j else 0, stops[j])
        members = order[seg]
        if members.size > 2:
            sub = A if ncomp == 1 else A[members][:, members].tocsr()
            order[seg] = members[np.argsort(_fiedler(sub), kind="stable")]
    # prefix[i] is the weight of order[:i]; the first closest one wins.
    prefix = np.concatenate(([0.0], np.cumsum(vwgt[order])))
    cut = min(max(int(np.argmin(np.abs(prefix - target))), 1), n - 1)
    side1 = np.zeros(n, dtype=bool)
    side1[order[cut:]] = True
    return side1


def _initial_partition(
    A: sparse.csr_matrix, vwgt: np.ndarray, nparts: int
) -> np.ndarray:
    """Recursive bisection of the coarsest graph (:func:`_bisect`)."""
    n = A.shape[0]
    parts = np.zeros(n, dtype=np.int64)
    stack = [(np.arange(n, dtype=np.int64), 0, nparts)]
    while stack:
        idx, base, k = stack.pop()
        if k == 1 or idx.size <= 1:
            parts[idx] = base
            continue
        kl = (k + 1) // 2
        kr = k - kl
        sub = A[idx][:, idx].tocsr()
        side1 = _bisect(sub, vwgt[idx], kl / k)
        stack.append((idx[~side1], base, kl))
        stack.append((idx[side1], base + kl, kr))
    return parts


def _row_entries(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stored positions of the entries of ``rows`` (each row in stored
    order) and, per entry, the index of its row in ``rows``."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    local = np.repeat(np.arange(rows.size), lens)
    pos = np.arange(local.size) + np.repeat(
        starts - (np.cumsum(lens) - lens), lens
    )
    return pos, local


def _move_gains(
    A: sparse.csr_matrix, parts: np.ndarray, rows: np.ndarray, nparts: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which of ``rows`` lie on a part boundary and, for each that does,
    the neighbouring part it is best connected to and the cut gain of
    moving it there (a row's edge weights are summed per part in stored
    order)."""
    if rows.size == A.shape[0]:
        pos, local = slice(None), _csr_rows(A)
    else:
        pos, local = _row_entries(A.indptr, rows)
    nbr = parts[A.indices[pos]]
    own = parts[rows]
    on_bnd = np.zeros(rows.size, dtype=bool)
    on_bnd[local[nbr != own[local]]] = True
    nb = int(np.count_nonzero(on_bnd))
    slot = np.cumsum(on_bnd) - 1
    e = np.flatnonzero(on_bnd[local])
    # (``astype``: an empty weighted ``bincount`` comes back integer.)
    conn = np.bincount(
        slot[local[e]] * nparts + nbr[e],
        weights=A.data[pos][e],
        minlength=nb * nparts,
    ).astype(np.float64, copy=False).reshape(nb, nparts)
    own = own[on_bnd]
    at = np.arange(nb)
    internal = conn[at, own]
    conn[at, own] = -np.inf
    best = np.argmax(conn, axis=1)
    return on_bnd, best, conn[at, best] - internal


def _refine(
    A: sparse.csr_matrix,
    vwgt: np.ndarray,
    parts: np.ndarray,
    nparts: int,
    passes: int = 6,
    tol: float = 0.05,
) -> np.ndarray:
    """Boundary FM-style refinement: greedy gain moves under balance.

    Each pass moves boundary vertices with positive gain, heaviest gain
    first (ties by vertex id), against live part weights.  Gains are kept
    per vertex (``-inf`` off the boundary) and a pass recomputes them only
    on the moved vertices and their neighbours, the rows whose gains a
    move can change.
    """
    parts = parts.copy()
    n = A.shape[0]
    target = vwgt.sum() / nparts
    cap = float(target * (1.0 + tol))
    floor = float(0.25 * target)
    part_w = np.bincount(parts, weights=vwgt, minlength=nparts).tolist()
    gain = np.full(n, -np.inf)
    best = np.zeros(n, dtype=np.int64)
    rows = np.arange(n)
    for _ in range(passes):
        on_bnd, row_best, row_gain = _move_gains(A, parts, rows, nparts)
        gain[rows] = -np.inf
        bnd = rows[on_bnd]
        gain[bnd] = row_gain
        best[bnd] = row_best
        cand = np.flatnonzero(gain > 0)
        if cand.size == 0:
            break
        cand = cand[np.argsort(-gain[cand], kind="stable")]
        moved_v: list[int] = []
        moved_q: list[int] = []
        for v, p, q, w in zip(
            cand.tolist(),
            parts[cand].tolist(),
            best[cand].tolist(),
            vwgt[cand].tolist(),
        ):
            if part_w[q] + w > cap or part_w[p] - w < floor:
                continue
            moved_v.append(v)
            moved_q.append(q)
            part_w[p] -= w
            part_w[q] += w
        if not moved_v:
            break
        moved = np.array(moved_v)
        parts[moved] = moved_q
        touched = np.zeros(n, dtype=bool)
        touched[moved] = True
        touched[A.indices[_row_entries(A.indptr, moved)[0]]] = True
        rows = np.flatnonzero(touched)
    return parts


def _rebalance(
    A: sparse.csr_matrix,
    vwgt: np.ndarray,
    parts: np.ndarray,
    nparts: int,
    tol: float,
    max_passes: int = 12,
) -> np.ndarray:
    """Hard balance pass: drain overloaded parts through their boundaries.

    The gain-driven refinement only moves vertices with positive cut gain;
    when parts are small that can leave weight imbalance behind.  This pass
    moves boundary vertices out of over-capacity parts into their least
    loaded neighboring part (accepting cut degradation) until every part
    fits under ``(1 + tol) * target``.
    """
    parts = parts.copy()
    n = A.shape[0]
    total = vwgt.sum()
    target = total / nparts
    cap = target * (1.0 + tol)
    part_w = np.zeros(nparts)
    np.add.at(part_w, parts, vwgt)
    indptr, indices = A.indptr, A.indices
    for _ in range(max_passes):
        over = np.flatnonzero(part_w > cap)
        if over.size == 0:
            break
        moved = 0
        for p in over:
            members = np.flatnonzero(parts == p)
            # Boundary members with their candidate destination parts.
            # Move light vertices first.  The stable kind makes the
            # rebalance order (and hence the final parts array) invariant
            # under ties — quicksort here made the partition depend on
            # introsort pivot choices for equal-weight vertices.
            order = np.argsort(vwgt[members], kind="stable")
            for v in members[order]:
                if part_w[p] <= cap:
                    break
                nbr_parts = parts[indices[indptr[v] : indptr[v + 1]]]
                nbr_parts = np.unique(nbr_parts[nbr_parts != p])
                if nbr_parts.size == 0:
                    continue
                q = nbr_parts[np.argmin(part_w[nbr_parts])]
                if part_w[q] + vwgt[v] > cap:
                    continue
                parts[v] = q
                part_w[p] -= vwgt[v]
                part_w[q] += vwgt[v]
                moved += 1
        if moved == 0:
            break
    return parts


def _drop_isolated(
    A: sparse.csr_matrix, isolated: np.ndarray
) -> sparse.csr_matrix:
    """``A`` without its isolated vertices, still canonical CSR: the kept
    rows keep their entries in stored order, renumbered."""
    keep = np.flatnonzero(~isolated)
    new_id = np.cumsum(~isolated) - 1
    return sparse.csr_matrix(
        (A.data, new_id[A.indices], np.append(A.indptr[keep], A.indptr[-1])),
        shape=(keep.size, keep.size),
    )


def _deal_isolated(
    parts: np.ndarray, vwgt: np.ndarray, isolated: np.ndarray, nparts: int
) -> np.ndarray:
    """Deal the isolated vertices, heaviest first (ties by id), each to the
    part that is lightest at that moment (ties by part id)."""
    loads = np.bincount(
        parts[~isolated], weights=vwgt[~isolated], minlength=nparts
    )
    heap = [(float(w), p) for p, w in enumerate(loads)]
    heapq.heapify(heap)
    ids = np.flatnonzero(isolated)
    ids = ids[np.argsort(-vwgt[ids], kind="stable")]
    for v, w in zip(ids.tolist(), vwgt[ids].tolist()):
        load, p = heapq.heappop(heap)
        parts[v] = p
        heapq.heappush(heap, (load + w, p))
    return parts


@dataclass
class MultilevelOptions:
    """Tuning knobs for :func:`multilevel_partition`.

    ``coarsest_size`` (raised to ``24 * nparts``) is where coarsening
    stops, unless :data:`MAX_VERTEX_SHARE` of ``balance_tol`` stops it
    first; ``seed`` draws the matching's tie-breaks.  The initial bisection
    has no knob: its eigensolver switches at the module constant
    :data:`DENSE_FIEDLER_MAX`.
    """

    coarsest_size: int = 384
    max_levels: int = 20
    refine_passes: int = 6
    balance_tol: float = 0.05
    seed: int = 0


def _multilevel(
    A: sparse.csr_matrix,
    vwgt: np.ndarray,
    nparts: int,
    opt: MultilevelOptions,
) -> np.ndarray:
    """Coarsen, bisect, uncoarsen with refinement, then rebalance a graph
    with no isolated vertex."""
    rng = np.random.default_rng(opt.seed)

    # Coarsening phase.
    graphs = [A]
    weights = [vwgt]
    aggs: list[np.ndarray] = []
    target = max(opt.coarsest_size, 24 * nparts)
    heaviest = MAX_VERTEX_SHARE * opt.balance_tol * vwgt.sum() / nparts
    while graphs[-1].shape[0] > target and len(graphs) < opt.max_levels:
        agg = heavy_edge_matching(graphs[-1], rng)
        nc = int(agg.max()) + 1
        if nc >= graphs[-1].shape[0] * 0.95:
            break  # matching stalled (e.g. star graphs)
        vc = np.bincount(agg, weights=weights[-1], minlength=nc)
        if vc.max() > heaviest:
            break  # too coarse to bisect near the target weights
        graphs.append(_coarsen(graphs[-1], agg))
        weights.append(vc)
        aggs.append(agg)

    # Initial partition on the coarsest level.
    parts = _initial_partition(graphs[-1], weights[-1], nparts)
    parts = _refine(
        graphs[-1], weights[-1], parts, nparts, opt.refine_passes, opt.balance_tol
    )

    # Uncoarsening with refinement at every level.
    for level in range(len(aggs) - 1, -1, -1):
        parts = parts[aggs[level]]
        parts = _refine(
            graphs[level],
            weights[level],
            parts,
            nparts,
            opt.refine_passes,
            opt.balance_tol,
        )
    # Enforce the balance constraint on the finest level.
    return _rebalance(A, vwgt, parts, nparts, opt.balance_tol)


def multilevel_partition(
    adjacency: sparse.spmatrix,
    nparts: int,
    vertex_weights: np.ndarray | None = None,
    options: MultilevelOptions | None = None,
) -> np.ndarray:
    """Partition a graph into ``nparts`` with the multilevel scheme.

    Args:
        adjacency: symmetric adjacency (weights used as edge weights;
            diagonal ignored).
        nparts: number of parts.
        vertex_weights: per-vertex weights to balance (default 1).
        options: tuning knobs.

    Returns:
        ``(n,)`` part assignment in ``[0, nparts)``.
    """
    opt = options or MultilevelOptions()
    # Canonical CSR without the diagonal and without stored zeros.
    A = sparse.csr_matrix(adjacency, dtype=np.float64, copy=True)
    A.sum_duplicates()
    A.data[A.indices == _csr_rows(A)] = 0.0
    A.eliminate_zeros()
    n = A.shape[0]
    if nparts < 1:
        raise ValueError("nparts must be positive")
    if nparts == 1:
        return np.zeros(n, dtype=np.int64)
    vwgt = (
        np.ones(n)
        if vertex_weights is None
        else np.asarray(vertex_weights, dtype=np.float64)
    )
    if vwgt.shape != (n,):
        raise ValueError("vertex_weights must be one per vertex")
    isolated = np.diff(A.indptr) == 0
    parts = np.zeros(n, dtype=np.int64)
    if not isolated.all():
        keep = np.flatnonzero(~isolated)
        parts[keep] = _multilevel(
            _drop_isolated(A, isolated), vwgt[keep], nparts, opt
        )
    return _deal_isolated(parts, vwgt, isolated, nparts)
