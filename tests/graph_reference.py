"""The parent's Stage 1 build, kept as the reference implementation.

:class:`ReferenceGraph` is :class:`~repro.assembly.graph.EquationGraph` with
the three-key ``lexsort`` build it had before the packed-key sort.  Every
array it produces (values and dtypes) is what the packed build must produce
(``tests/test_graph_compact.py``).
"""

from __future__ import annotations

import numpy as np

from repro.assembly.graph import EquationGraph, GroupLayout


class ReferenceGraph(EquationGraph):
    """The lexsort build (kept verbatim; do not optimize)."""

    def _build(self) -> None:
        num = self.numbering
        spec = self.spec
        nranks = num.nranks
        o2n = num.old_to_new
        offsets = num.offsets

        is_con = np.zeros(self.n, dtype=bool)
        is_con[o2n[spec.constraint_rows]] = True
        self.is_constraint_new = is_con

        ea = o2n[spec.edges[:, 0]]
        eb = o2n[spec.edges[:, 1]]
        E = ea.size

        def owner(new_ids: np.ndarray) -> np.ndarray:
            """Owning rank of rank-block global ids."""
            return np.searchsorted(offsets, new_ids, side="right") - 1

        # Contribution list: (row, col, computing rank, source id).
        # Edge entries, in fixed layout 4e+{0:aa, 1:ab, 2:ba, 3:bb}.
        edge_rank = owner(ea)
        rows = np.concatenate([ea, ea, eb, eb])
        cols = np.concatenate([ea, eb, ea, eb])
        cranks = np.concatenate([edge_rank] * 4)
        src = np.concatenate(
            [
                np.arange(E, dtype=np.int64) * 4 + 0,
                np.arange(E, dtype=np.int64) * 4 + 1,
                np.arange(E, dtype=np.int64) * 4 + 2,
                np.arange(E, dtype=np.int64) * 4 + 3,
            ]
        )
        valid = ~is_con[rows]

        # Diagonal entry for every row (time term / constraint identity),
        # computed by the owner.
        all_rows = np.arange(self.n, dtype=np.int64)
        rows = np.concatenate([rows[valid], all_rows])
        cols = np.concatenate([cols[valid], all_rows])
        cranks = np.concatenate([cranks[valid], owner(all_rows)])
        diag_src = -(all_rows + 1)  # negative tag: diag source
        src = np.concatenate([src[valid], diag_src])

        # Coupled-overset donor columns.
        self.fringe_slots: np.ndarray | None = None
        n_fringe = 0
        if (
            spec.coupled_fringe
            and spec.fringe_rows is not None
            and spec.fringe_rows.size
        ):
            fr = o2n[spec.fringe_rows]
            fd = o2n[spec.fringe_donors]
            n_fringe = fr.size
            frows = np.repeat(fr, 8)
            fcols = fd.reshape(-1)
            rows = np.concatenate([rows, frows])
            cols = np.concatenate([cols, fcols])
            cranks = np.concatenate([cranks, owner(frows)])
            fsrc = -(self.n + np.arange(frows.size, dtype=np.int64) + 1)
            src = np.concatenate([src, fsrc])

        row_owner = owner(rows)
        shared = (row_owner != cranks).astype(np.int64)
        grp = cranks * 2 + shared  # group id: (rank, owned=0/shared=1)
        self.contrib_per_rank = np.bincount(cranks, minlength=nranks)

        # Sort all contributions by (group, row, col); runs of equal
        # (group,row,col) collapse to one unique matrix entry.
        order = np.lexsort((cols, rows, grp))
        g_s, r_s, c_s = grp[order], rows[order], cols[order]
        new_run = np.ones(order.size, dtype=bool)
        if order.size:
            new_run[1:] = (
                (g_s[1:] != g_s[:-1])
                | (r_s[1:] != r_s[:-1])
                | (c_s[1:] != c_s[:-1])
            )
        uid_sorted = np.cumsum(new_run) - 1
        nnz_total = int(uid_sorted[-1]) + 1 if order.size else 0

        starts = np.flatnonzero(new_run)
        self.u_row = r_s[starts]
        self.u_col = c_s[starts]
        u_grp = g_s[starts]
        self.nnz_total = nnz_total

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

        # Invert the sort to get per-contribution slots in original order.
        slots = np.empty(order.size, dtype=np.int64)
        slots[order] = uid_sorted

        # Unpack slots back to their sources.
        n_edge_contrib = int(valid.sum())
        self.edge_slots = np.full(4 * E, -1, dtype=np.int64)
        self.edge_slots[src[:n_edge_contrib]] = slots[:n_edge_contrib]
        self.diag_slots = slots[n_edge_contrib : n_edge_contrib + self.n]
        if n_fringe:
            self.fringe_slots = slots[
                n_edge_contrib + self.n :
            ].reshape(n_fringe, 8)

        # RHS layout: every row has exactly one RHS entry owned by its
        # owner; edge-sourced RHS contributions into off-rank rows form the
        # shared RHS (Algorithm 2's input).  Build per-rank shared row sets
        # from the same edge ownership rule.
        self._build_rhs(ea, eb, edge_rank, offsets)

        # Cost: the graph computation is sequential host work (§3.1);
        # charge one traversal of the contribution list plus the sort.
        share = float(order.size) / nranks
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
        src_idx = np.flatnonzero(valid)
        self.rhs_edge_rows = rows
        self.rhs_edge_src = src_idx  # position in the (2E,) edge-RHS layout
        self.rhs_shared_rows: list[np.ndarray] = []
        self.rhs_edge_slot = np.full(2 * ea.size, -1, dtype=np.int64)
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


def graph_arrays(graph: EquationGraph) -> dict[str, object]:
    """Every array and layout a graph retains, by attribute name: arrays
    as themselves, lists of arrays element by element, group layouts as
    ``(start, stop)`` pairs."""
    out: dict[str, object] = {}
    for name, value in sorted(vars(graph).items()):
        if isinstance(value, np.ndarray):
            out[name] = value
        elif name == "groups":
            out[name] = [[(g.start, g.stop) for g in kinds] for kinds in value]
        elif isinstance(value, list):
            for i, arr in enumerate(value):
                out[f"{name}[{i}]"] = arr
        elif name in ("nnz_total", "rhs_shared_total", "fringe_slots"):
            out[name] = value
    return out
