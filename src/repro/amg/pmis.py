"""PMIS coarsening (parallel maximal independent set).

Paper §4.1: "BoomerAMG currently only provides the parallel maximal
independent set (PMIS) coarsening on GPUs, which is modified from Luby's
algorithm for finding maximal independent sets using random numbers.  The
process of selecting coarse points in this algorithm is massively parallel."

Each point gets a measure ``lambda_i = |{j : i in S(j)}| + rand_i`` (the
number of points it strongly influences plus a uniform tie-break, hypre's
convention).  Rounds of Luby selection pick the points whose measure is a
strict local maximum over the undirected strong graph as C-points; their
strong neighbors become F-points.  Points influencing nothing start as
F-points.  Everything is vectorized per round.

A row with no strong connection in either direction is an F-point with an
empty interpolation row (hypre's ``SF_PT``): nothing interpolates to it or
from it, the fine-level smoother relaxes it alone (exactly, when its
off-diagonal is empty, as for the unit-diagonal Dirichlet / fringe / hole
rows of the pressure system) and the coarse grids never see it.  Only the
aggressive second pass, which coarsens the first pass's C-points over the
distance-two graph, keeps such a point C: a first-pass C-point with no
C-point within distance two is the one coarse point its neighbourhood has.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

#: Marker values, hypre convention.
C_POINT = 1
F_POINT = -1
UNDECIDED = 0


# repro: allow(RL005) — AMG setup kernel; the hierarchy charges it at the
# call site via _record_setup_pass(A_l, "amg_pmis", passes=4.0).
def pmis_coarsen(
    S: sparse.csr_matrix,
    rng: np.random.Generator,
    max_rounds: int = 100,
    isolated: int = F_POINT,
) -> np.ndarray:
    """Run PMIS on a strength matrix.

    Args:
        S: strength-of-connection (boolean CSR, no diagonal).
        rng: random generator for the tie-break measures (the paper uses
            cuRAND for these).
        max_rounds: safety cap on Luby rounds.
        isolated: marker of a point with no strong connection in either
            direction (``C_POINT`` only in :func:`second_pass_aggressive`).

    Returns:
        ``(n,)`` array of ``C_POINT`` / ``F_POINT`` markers.
    """
    n = S.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int8)
    # Undirected strong graph for independence checks.
    G = (S + S.T).tocsr()
    G.data[:] = 1.0

    # Measure: in-degree of S (how many points i influences) + tie-break.
    influence = np.asarray(S.sum(axis=0)).ravel()
    lam = influence + rng.random(n)

    cf = np.zeros(n, dtype=np.int8)
    # Points that influence nothing carry no interpolatory value and start
    # as F-points; with no strong neighbor at all they are `isolated`.
    degree = np.diff(G.indptr)
    cf[influence < 1.0] = F_POINT
    cf[degree == 0] = isolated

    indptr, indices = G.indptr, G.indices
    rows = np.repeat(np.arange(n), np.diff(indptr))
    for _ in range(max_rounds):
        undecided = cf == UNDECIDED
        if not np.any(undecided):
            break
        # Neighbor-max of lambda over undecided neighbors.
        active_edge = undecided[rows] & undecided[indices]
        vals = np.where(active_edge, lam[indices], -np.inf)
        nbr_max = np.full(n, -np.inf)
        np.maximum.at(nbr_max, rows, vals)
        new_c = undecided & (lam > nbr_max)
        if not np.any(new_c):  # pragma: no cover - ties are measure-zero
            new_c = undecided
        cf[new_c] = C_POINT
        # Strong neighbors (either direction) of new C-points become F.
        cmask = np.zeros(n)
        cmask[new_c] = 1.0
        touched = (G @ cmask) > 0
        cf[touched & (cf == UNDECIDED)] = F_POINT
    if np.any(cf == UNDECIDED):  # pragma: no cover - max_rounds exhausted
        cf[cf == UNDECIDED] = F_POINT
    return cf


def second_pass_aggressive(
    S_agg: sparse.csr_matrix,
    cf: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """A-1 aggressive coarsening: re-coarsen the C-points.

    Args:
        S_agg: distance-two strength ``S^2 + S`` on the *fine* level.
        cf: first-pass C/F markers.
        rng: tie-break generator.

    Returns:
        Updated markers: final C-points are a subset of the first-pass
        C-points; demoted ones become F-points.
    """
    cpts = np.flatnonzero(cf == C_POINT)
    if cpts.size == 0:
        return cf.copy()
    Scc = S_agg[cpts][:, cpts].tocsr()
    sub = pmis_coarsen(Scc, rng, isolated=C_POINT)
    out = cf.copy()
    out[cpts[sub == F_POINT]] = F_POINT
    return out
