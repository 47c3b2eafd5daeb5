"""Stage 1: graph (sparsity-pattern) computation.

Paper §3.1: "The graph-computation stage computes the exact sparsity pattern
of a linear system for each governing equation. ... Boundary-condition
nodes, including periodic, Dirichlet, and overset DoFs are accounted for
precisely.  Coordinate (COO) matrices, which includes the row and column
indices, are computed for both the owned and shared DoFs.  These matrices
are sorted in row-major format.  Several auxiliary data structures are also
constructed that enable matrix element location determination in the next
stage."

This implementation produces exactly those artifacts:

* per (rank, owned/shared) group: the sorted, duplicate-free COO pattern;
* the "auxiliary data structures": precomputed scatter slots taking every
  per-edge / per-node / per-constraint contribution straight to its matrix
  position, so Stage 2 (local assembly) is a pure data-parallel scatter-add;
* the analogous row patterns and slots for the RHS vectors.

Every retained index array (row and column ids below ``n``, slots below
the contribution count, edge-RHS positions below ``2E``) is built at
:func:`~repro.linalg.parcsr.index_dtype`'s width: ``int32`` whenever those
sizes fit.  The packed sort key, a product of ids, is ``int64``; Stage 3
widens ids to ``int64`` where they cross the exchange.

Work attribution follows the paper: an edge's contributions are computed by
the rank owning its first endpoint, so contributions into rows owned by a
different rank land in that rank's *shared* COO — the traffic Algorithm 1
later exchanges.  The graph computation itself "runs on the CPU" (§3.1) and
is costed as sequential host work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.comm.simcomm import SimWorld
from repro.linalg.parcsr import index_dtype
from repro.partition.renumber import RankNumbering

#: Monotonic id source for :attr:`EquationGraph.revision`.
_REVISION_COUNTER = itertools.count(1)


@dataclass
class GraphSpec:
    """Inputs describing one governing equation's couplings.

    All ids are *application* (pre-renumbering) DoF ids.

    Attributes:
        n: total DoF count.
        edges: ``(E, 2)`` active interior edges (drop hole-incident edges).
        constraint_rows: rows whose equation is replaced by a constraint
            (Dirichlet boundaries, overset fringe receptors, holes).
        fringe_rows: receptor rows that, in *coupled* overset mode, also
            couple to their donors (subset of ``constraint_rows``).
        fringe_donors: ``(m, 8)`` donor ids aligned with ``fringe_rows``.
        coupled_fringe: include donor columns in fringe rows (True) or
            leave fringe rows as pure identity constraints whose RHS is
            refreshed each outer additive-Schwarz iteration (False).
    """

    n: int
    edges: np.ndarray
    constraint_rows: np.ndarray
    fringe_rows: np.ndarray | None = None
    fringe_donors: np.ndarray | None = None
    coupled_fringe: bool = False


@dataclass
class GroupLayout:
    """Slice boundaries of one (rank, owned/shared) group in a flat array."""

    start: int
    stop: int

    @property
    def size(self) -> int:
        """Number of unique entries in the group."""
        return self.stop - self.start


class EquationGraph:
    """Sparsity pattern + scatter slots for one equation system.

    The unique COO entries of all (rank, kind) groups live in one flat
    layout of length :attr:`nnz_total`; groups are contiguous slices
    (owned then shared, by rank).  Contribution slot arrays index into that
    layout, so Stage 2 fills every rank's owned and shared buffers with a
    single vectorized scatter-add (the device-atomic analogue, §3.2).
    """

    def __init__(
        self, world: SimWorld, numbering: RankNumbering, spec: GraphSpec
    ) -> None:
        self.world = world
        self.numbering = numbering
        self.spec = spec
        self.n = spec.n
        if spec.n != numbering.n:
            raise ValueError("numbering size does not match spec.n")
        #: Process-unique pattern token.  Every graph build gets a fresh
        #: revision, and ``EquationSystem.update_graph`` builds one only
        #: when the spec moved or ``drop_graph`` ended the graph's lifetime
        #: (a start-up step, a checkpoint write, a rewind), so a cached
        #: :class:`~repro.assembly.plan.AssemblyPlan` or preconditioner
        #: keyed on the revision lives exactly as long as the graph.
        self.revision = next(_REVISION_COUNTER)

        self._build()

    # -- construction ----------------------------------------------------------

    def _build(self) -> None:
        num = self.numbering
        spec = self.spec
        nranks = num.nranks
        offsets = num.offsets
        n = self.n
        E = spec.edges.shape[0]
        n_fringe = 0
        if (
            spec.coupled_fringe
            and spec.fringe_rows is not None
            and spec.fringe_rows.size
        ):
            n_fringe = spec.fringe_rows.size
        # Ids are below n, slots below the contribution count (at most
        # 4E + n + 8·n_fringe) and edge-RHS positions below 2E.
        idx = index_dtype(n, 4 * E + n + 8 * n_fringe, 2 * E)
        # The packed sort key below stays under 2·nranks·n².
        assert 2 * nranks * n * n < np.iinfo(np.int64).max, "key overflow"
        o2n = num.old_to_new.astype(idx, copy=False)

        is_con = np.zeros(n, dtype=bool)
        is_con[o2n[spec.constraint_rows]] = True
        self.is_constraint_new = is_con

        ea = o2n[spec.edges[:, 0]]
        eb = o2n[spec.edges[:, 1]]

        def owner(new_ids: np.ndarray) -> np.ndarray:
            """Owning rank of rank-block global ids."""
            return np.searchsorted(offsets, new_ids, side="right") - 1

        # Contribution list (row, col, computing rank), valid entries only:
        # the edge blocks {0:aa, 1:ab, 2:ba, 3:bb} (rows a / b off the
        # constraint rows), a diagonal entry for every row (time term /
        # constraint identity, computed by the owner), then the
        # coupled-overset donor columns.
        edge_rank = owner(ea)
        va = ~is_con[ea]  # edges whose row a is free
        vb = ~is_con[eb]
        a_va, b_va = ea[va], eb[va]
        a_vb, b_vb = ea[vb], eb[vb]
        all_rows = np.arange(n, dtype=idx)
        rows = [a_va, a_va, b_vb, b_vb, all_rows]
        cols = [a_va, b_va, a_vb, b_vb, all_rows]
        cranks = [edge_rank[va], edge_rank[va], edge_rank[vb],
                  edge_rank[vb], owner(all_rows)]
        n_valid = (a_va.size, a_va.size, b_vb.size, b_vb.size)
        del a_va, b_va, a_vb, b_vb

        self.fringe_slots: np.ndarray | None = None
        if n_fringe:
            frows = np.repeat(o2n[spec.fringe_rows], 8)
            rows.append(frows)
            cols.append(o2n[spec.fringe_donors].reshape(-1))
            cranks.append(owner(frows))
            del frows
        del o2n
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        key = np.concatenate(cranks)  # int64, as the packed key must be
        del cranks
        self.contrib_per_rank = np.bincount(key, minlength=nranks)

        # One packed key per contribution, (group·n + row)·n + col with
        # group = 2·rank + (owned=0/shared=1): its stable argsort is the
        # stable (group, row, col) lexsort, and runs of equal keys
        # collapse to one unique matrix entry.
        shared = owner(rows) != key
        key *= 2
        key += shared
        del shared
        key *= n
        key += rows
        del rows
        key *= n
        key += cols
        del cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        new_run = np.empty(key.size, dtype=bool)
        new_run[:1] = True
        np.not_equal(key[1:], key[:-1], out=new_run[1:])
        starts = np.flatnonzero(new_run)
        u_grp = key[starts]
        del key, starts
        self.nnz_total = u_grp.size
        # Unpack in place: col, then row, leave the group in u_grp.
        self.u_col = np.empty(self.nnz_total, dtype=idx)
        self.u_row = np.empty(self.nnz_total, dtype=idx)
        np.divmod(u_grp, n, out=(u_grp, self.u_col), casting="unsafe")
        np.divmod(u_grp, n, out=(u_grp, self.u_row), casting="unsafe")

        # Group boundaries in the unique layout.
        self.groups: list[list[GroupLayout]] = []
        for r in range(nranks):
            own = np.searchsorted(u_grp, 2 * r), np.searchsorted(
                u_grp, 2 * r + 1
            )
            snd = np.searchsorted(u_grp, 2 * r + 1), np.searchsorted(
                u_grp, 2 * r + 2
            )
            self.groups.append(
                [GroupLayout(*own), GroupLayout(*snd)]
            )
        del u_grp

        # Invert the sort to get per-contribution slots in original order.
        n_contrib = order.size
        uid_sorted = np.cumsum(new_run, dtype=idx)
        del new_run
        uid_sorted -= 1
        slots = np.empty(n_contrib, dtype=idx)
        slots[order] = uid_sorted
        del order, uid_sorted

        # Unpack slots back to their sources: edge e's block-k entry lives
        # at 4e + k; entries on constraint rows keep -1.
        self.edge_slots = np.full(4 * E, -1, dtype=idx)
        by_edge = self.edge_slots.reshape(E, 4)
        lo = 0
        for k, valid in enumerate((va, va, vb, vb)):
            by_edge[valid, k] = slots[lo : lo + n_valid[k]]
            lo += n_valid[k]
        del by_edge, va, vb
        self.diag_slots = slots[lo : lo + n].copy()
        if n_fringe:
            self.fringe_slots = slots[lo + n :].reshape(n_fringe, 8).copy()
        del slots

        # RHS layout: every row has exactly one RHS entry owned by its
        # owner; edge-sourced RHS contributions into off-rank rows form the
        # shared RHS (Algorithm 2's input).  Build per-rank shared row sets
        # from the same edge ownership rule.
        self._build_rhs(ea, eb, edge_rank, offsets)

        # Cost: the graph computation is sequential host work (§3.1);
        # charge one traversal of the contribution list plus the sort.
        share = float(n_contrib) / nranks
        self.world.charge("graph_host", 8.0 * share, 64.0 * share, launches=0)

    def _build_rhs(
        self,
        ea: np.ndarray,
        eb: np.ndarray,
        edge_rank: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        """RHS row patterns: owned rows densely, shared rows per rank."""
        nranks = len(offsets) - 1
        rows = np.concatenate([ea, eb])
        cranks = np.concatenate([edge_rank, edge_rank])
        is_con = self.is_constraint_new
        valid = ~is_con[rows]
        rows = rows[valid]
        cranks = cranks[valid]
        owner = np.searchsorted(offsets, rows, side="right") - 1
        shared = owner != cranks
        # Shared RHS rows per computing rank (sorted unique), and slots for
        # each edge-RHS contribution: positive -> owned (global row id),
        # negative -> -(shared_flat_index + 1).
        src_idx = np.arange(valid.size, dtype=rows.dtype)[valid]
        self.rhs_edge_rows = rows
        self.rhs_edge_src = src_idx  # position in the (2E,) edge-RHS layout
        self.rhs_shared_rows: list[np.ndarray] = []
        self.rhs_edge_slot = np.full(2 * ea.size, -1, dtype=rows.dtype)
        shared_offset = 0
        own_mask = ~shared
        self.rhs_edge_slot[src_idx[own_mask]] = rows[own_mask]
        # tag owned entries by row id (scatter straight into global RHS)
        self._rhs_shared_offsets = np.zeros(nranks + 1, dtype=np.int64)
        for r in range(nranks):
            sel = shared & (cranks == r)
            srows = np.unique(rows[sel])
            self.rhs_shared_rows.append(srows)
            pos = np.searchsorted(srows, rows[sel])
            enc = -(shared_offset + pos + 1)
            self.rhs_edge_slot[src_idx[sel]] = enc
            shared_offset += srows.size
            self._rhs_shared_offsets[r + 1] = shared_offset
        self.rhs_shared_total = shared_offset

    # -- per-rank views -----------------------------------------------------------

    def owned_pattern(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted unique (row, col) of the rank's owned COO (new ids)."""
        g = self.groups[rank][0]
        return self.u_row[g.start : g.stop], self.u_col[g.start : g.stop]

    def shared_pattern(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted unique (row, col) of the rank's shared (send) COO."""
        g = self.groups[rank][1]
        return self.u_row[g.start : g.stop], self.u_col[g.start : g.stop]

    def nnz_recv(self, rank: int) -> int:
        """COO entries this rank will receive in global assembly.

        Paper §3.3: "easily computed using MPI_Allreduce API calls after the
        graph-computation step completes" — here a direct count of other
        ranks' shared entries destined for this rank's rows.
        """
        lo, hi = self.numbering.offsets[rank], self.numbering.offsets[rank + 1]
        total = 0
        for r in range(self.numbering.nranks):
            if r == rank:
                continue
            g = self.groups[r][1]
            rws = self.u_row[g.start : g.stop]
            total += int(
                np.searchsorted(rws, hi) - np.searchsorted(rws, lo)
            )
        return total
