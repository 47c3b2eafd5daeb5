"""Stage 2: Nalu-Wind local assembly.

Paper §3.2: once the governing-equation terms are evaluated on the mesh,
"the Nalu-Wind assembly phase can use the graph to fill the matrix and RHS
elements in a data-parallel manner. ... it is possible that the update of
these values occurs simultaneously from different threads.  To overcome
this, we use device atomic operations."

Here the atomics become vectorized ``np.add.at`` scatter-adds into the flat
unique-entry layout the graph precomputed; the "auxiliary data structures
[that] help determine the write location quickly" are the graph's slot
arrays, so no search happens at assembly time at all (the paper's optimized
linear/binary search + texture-memory reads are costed in the recorder).
The output is per-rank owned/shared COO values and RHS entries — sorted
row-major, duplicate-free, exactly the preconditions Algorithm 1 assumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.assembly.graph import EquationGraph
from repro.comm.simcomm import SimWorld


@dataclass
class RankCOO:
    """One rank's assembled COO piece (owned or shared)."""

    i: np.ndarray
    j: np.ndarray
    a: np.ndarray

    @property
    def nnz(self) -> int:
        """Entry count of the COO piece."""
        return self.i.size


@dataclass
class RankRHS:
    """One rank's assembled RHS piece."""

    i: np.ndarray
    r: np.ndarray

    @property
    def n(self) -> int:
        """Entry count of the RHS piece."""
        return self.i.size


@dataclass
class LocalSystem:
    """Per-rank assembly output, input to the global assembly (Stage 3)."""

    own_matrix: list[RankCOO]
    send_matrix: list[RankCOO]
    own_rhs: list[RankRHS]
    send_rhs: list[RankRHS]


#: Accumulation modes for the data-parallel scatter (paper §3.2).
SCATTER_MODES = ("atomic", "deterministic", "compensated")


def _segmented_kahan(
    target: np.ndarray, slots: np.ndarray, vals: np.ndarray
) -> None:
    """Compensated (Kahan) segmented summation into ``target``.

    Contributions are grouped by slot and accumulated with an error term,
    vectorized across slots round by round (the maximum contributions per
    matrix entry is small — an entry receives at most one contribution per
    incident edge).  This is the compensated summation the paper names as
    a mitigation for atomic-order nondeterminism ("not yet been
    implemented" there; implemented here).
    """
    order = np.argsort(slots, kind="stable")
    s = slots[order]
    v = vals[order]
    if s.size == 0:
        return
    run_start = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    run_id = np.cumsum(np.r_[True, s[1:] != s[:-1]]) - 1
    pos = np.arange(s.size) - run_start[run_id]
    targets = s[run_start]
    comp = np.zeros(targets.size)
    acc = np.zeros(targets.size)
    # Kahan-Babuska-Neumaier: the compensation survives even when the new
    # term exceeds the accumulator (plain Kahan loses that case).
    for k in range(int(pos.max()) + 1):
        sel = pos == k
        rid = run_id[sel]
        x = v[sel]
        a = acc[rid]
        t = a + x
        big = np.abs(a) >= np.abs(x)
        corr = np.where(big, (a - t) + x, (x - t) + a)
        comp[rid] += corr
        acc[rid] = t
    np.add.at(target, targets, acc + comp)


class LocalAssembler:
    """Fills matrix/RHS values through a precomputed equation graph.

    Args:
        world: simulated world (cost recording).
        graph: the Stage-1 equation graph.
        mode: how concurrent contributions combine (paper §3.2):

            * ``"atomic"`` — device atomics; fastest, but the summation
              order is nondeterministic run to run on real hardware (the
              paper's production choice);
            * ``"deterministic"`` — sort contributions by destination and
              reduce in a fixed order ("required significantly more memory
              and a global sorting algorithm");
            * ``"compensated"`` — deterministic order plus Kahan
              compensation (the mitigation the paper proposes as future
              work).

    NumPy runs no concurrent threads: ``np.add.at`` commits in list order,
    so all three modes are run-to-run reproducible here.  What the last
    two model is a per-entry summation order fixed by the canonical
    contribution list — a *stable* sort on destination (lint rule RL001
    keeps it stable) — where device atomics commit in arrival order.
    """

    def __init__(
        self,
        world: SimWorld,
        graph: EquationGraph,
        mode: str = "atomic",
    ) -> None:
        if mode not in SCATTER_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; options {SCATTER_MODES}"
            )
        self.world = world
        self.graph = graph
        self.mode = mode
        self.values = np.zeros(graph.nnz_total)
        self.rhs_owned = np.zeros(graph.n)
        self.rhs_shared = np.zeros(graph.rhs_shared_total)
        self._record_assembly_storage()

    def _record_assembly_storage(self) -> None:
        g = self.graph
        self._storage_per_rank: list[float] = [
            20.0 * (own.size + snd.size)
            for own, snd in g.groups
        ]
        self._released = False
        self.world.charge_alloc(self._storage_per_rank)

    def release(self) -> None:
        """Return the COO staging storage (graph is being rebuilt)."""
        if self._released:
            return
        self._released = True
        self.world.charge_alloc([-b for b in self._storage_per_rank])

    def reset(self) -> None:
        """Zero all values for the next assembly (pattern is reused)."""
        self.values[:] = 0.0
        self.rhs_owned[:] = 0.0
        self.rhs_shared[:] = 0.0

    def reset_rhs(self) -> None:
        """Zero only the RHS (multi-RHS solves on one matrix, e.g. the
        three momentum components sharing their advection-diffusion
        operator)."""
        self.rhs_owned[:] = 0.0
        self.rhs_shared[:] = 0.0

    def _scatter(
        self, target: np.ndarray, slots: np.ndarray, vals: np.ndarray
    ) -> None:
        """Combine concurrent contributions per the accumulation mode."""
        if self.mode == "atomic":
            np.add.at(target, slots, vals)
            return
        # Deterministic modes sort by destination first (costed as a
        # device sort over the contribution list).
        from repro.assembly.primitives import record_sort_cost

        n = slots.size
        total = float(self.graph.contrib_per_rank.sum()) or 1.0
        for r in range(self.graph.numbering.nranks):
            share = int(n * (self.graph.contrib_per_rank[r] / total))
            record_sort_cost(self.world, r, share, 8, kernel="asm_det_sort")
            self.world.charge_alloc(16.0 * share, ranks=[r])
            self.world.charge_alloc(-16.0 * share, ranks=[r])
        if self.mode == "deterministic":
            order = np.argsort(slots, kind="stable")
            s_sorted = slots[order]
            v_sorted = vals[order]
            starts = np.flatnonzero(
                np.r_[True, s_sorted[1:] != s_sorted[:-1]]
            )
            sums = np.add.reduceat(v_sorted, starts)
            np.add.at(target, s_sorted[starts], sums)
        else:  # compensated
            _segmented_kahan(target, slots, vals)

    # -- matrix contributions --------------------------------------------------

    def add_edge_matrix(self, vals4: np.ndarray) -> None:
        """Scatter per-edge 2x2 blocks.

        Args:
            vals4: ``(E, 4)`` contributions in the graph's fixed layout
                ``[(a,a), (a,b), (b,a), (b,b)]`` per edge.  Entries whose
                row is a constraint are dropped automatically.
        """
        flat = np.ascontiguousarray(vals4).reshape(-1)
        slots = self.graph.edge_slots
        m = slots >= 0
        self._scatter(self.values, slots[m], flat[m])
        self._record_scatter(flat.size, "assemble_edge")

    def add_diag(self, vals_new: np.ndarray) -> None:
        """Add to every row's diagonal entry (indexed by *new* row id)."""
        if vals_new.shape != (self.graph.n,):
            raise ValueError("diag values must cover every row")
        # Diagonal slots are unique per row: plain indexed add suffices.
        self.values[self.graph.diag_slots] += vals_new
        self._record_scatter(vals_new.size, "assemble_diag")

    def add_fringe_matrix(self, weights: np.ndarray) -> None:
        """Fill coupled-overset donor columns (graph must be coupled)."""
        if self.graph.fringe_slots is None:
            raise RuntimeError("graph was not built with coupled_fringe")
        if weights.shape != self.graph.fringe_slots.shape:
            raise ValueError("weights shape must match fringe slots")
        self._scatter(
            self.values,
            self.graph.fringe_slots.reshape(-1),
            np.ascontiguousarray(weights).reshape(-1),
        )
        self._record_scatter(weights.size, "assemble_fringe")

    # -- RHS contributions -----------------------------------------------------

    def add_node_rhs(self, vals_new: np.ndarray) -> None:
        """Owner-computed RHS source per row (indexed by new row id)."""
        if vals_new.shape != (self.graph.n,):
            raise ValueError("node RHS must cover every row")
        free = ~self.graph.is_constraint_new
        self.rhs_owned[free] += vals_new[free]
        self._record_scatter(vals_new.size, "assemble_rhs_node")

    def set_constraint_rhs(self, rows_new: np.ndarray, vals: np.ndarray) -> None:
        """Set constraint-row RHS (Dirichlet / fringe donor values).

        A raw (non-atomic, non-reduced) assignment: callers must pass
        each constraint row at most once per launch, or which value wins
        depends on the device's commit order.
        """
        self.rhs_owned[rows_new] = vals
        self._record_scatter(rows_new.size, "assemble_rhs_bc")

    def add_edge_rhs(self, vals2: np.ndarray) -> None:
        """Edge-computed RHS contributions (column 0 to row a, 1 to row b).

        Contributions into off-rank rows route to the shared RHS buffers
        that Algorithm 2 later exchanges.
        """
        E = self.graph.rhs_edge_slot.size // 2
        if vals2.shape != (E, 2):
            raise ValueError(f"expected ({E}, 2) edge RHS values")
        flat = np.concatenate([vals2[:, 0], vals2[:, 1]])
        slot = self.graph.rhs_edge_slot
        owned = slot >= 0
        valid = np.zeros_like(owned)
        valid_rows = self.graph.rhs_edge_src
        valid[valid_rows] = True
        om = owned & valid
        self._scatter(self.rhs_owned, slot[om], flat[om])
        sm = (~owned) & valid
        self._scatter(self.rhs_shared, -slot[sm] - 1, flat[sm])
        self._record_scatter(flat.size, "assemble_rhs_edge")

    # -- bookkeeping ---------------------------------------------------------------

    def _record_scatter(self, n_contrib: int, kernel: str) -> None:
        g = self.graph
        total = float(g.contrib_per_rank.sum()) or 1.0
        shares = n_contrib * (g.contrib_per_rank / total)
        # Bytes: read value + slot, atomic read-modify-write.
        self.world.charge(kernel, 2.0 * shares, (8.0 + 8.0 + 16.0) * shares)

    # -- output ---------------------------------------------------------------------

    def finalize(self) -> LocalSystem:
        """Slice the flat layouts into per-rank owned/shared COO and RHS."""
        g = self.graph
        num = g.numbering
        own_m: list[RankCOO] = []
        send_m: list[RankCOO] = []
        own_r: list[RankRHS] = []
        send_r: list[RankRHS] = []
        for r in range(num.nranks):
            go, gs = g.groups[r]
            own_m.append(
                RankCOO(
                    i=g.u_row[go.start : go.stop],
                    j=g.u_col[go.start : go.stop],
                    a=self.values[go.start : go.stop],
                )
            )
            send_m.append(
                RankCOO(
                    i=g.u_row[gs.start : gs.stop],
                    j=g.u_col[gs.start : gs.stop],
                    a=self.values[gs.start : gs.stop],
                )
            )
            lo, hi = num.offsets[r], num.offsets[r + 1]
            own_r.append(
                RankRHS(
                    i=np.arange(lo, hi, dtype=np.int64),
                    r=self.rhs_owned[lo:hi],
                )
            )
            slo, shi = g._rhs_shared_offsets[r], g._rhs_shared_offsets[r + 1]
            send_r.append(
                RankRHS(
                    i=g.rhs_shared_rows[r],
                    r=self.rhs_shared[slo:shi],
                )
            )
        return LocalSystem(
            own_matrix=own_m,
            send_matrix=send_m,
            own_rhs=own_r,
            send_rhs=send_r,
        )
