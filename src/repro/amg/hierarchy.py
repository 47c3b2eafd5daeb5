"""BoomerAMG setup: coarsening, interpolation, Galerkin products.

Builds the multilevel hierarchy of paper §4.1: strength-of-connection,
PMIS coarsening (with A-1 aggressive coarsening + two-stage interpolation
on the first levels, as the pressure-Poisson preconditioner uses:
"aggressive PMIS coarsening at the first two levels combined with the
matrix-based approach for the second-stage interpolation"), MM-ext-family
or direct interpolation, hypre-style truncation, and Galerkin triple
products executed as two recorded SpGEMMs.

Every level's operator is wrapped as a :class:`~repro.linalg.ParCSRMatrix`
on the coarse rank-block distribution induced by the fine one (C-points
stay with their owner), so smoothing, restriction, and prolongation all
record their per-rank work and halo traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.amg.interp import (
    bamg_direct_interpolation,
    direct_interpolation,
    truncate_interpolation,
)
from repro.amg.interp_mm import mm_ext_i_interpolation, mm_ext_interpolation
from repro.amg.pmis import C_POINT, pmis_coarsen, second_pass_aggressive
from repro.amg.strength import aggressive_strength, strength_matrix
from repro.comm.simcomm import SimWorld
from repro.linalg.parcsr import ParCSRMatrix
from repro.obs.telemetry import AMGSetupStats
from repro.linalg.spgemm import galerkin_product, galerkin_refresh, spgemm
from repro.serialize import Config
from repro.smoothers.factory import make_smoother, smoother_options

#: Calibrated per-level setup communication rounds.  Distributed BoomerAMG
#: setup exchanges far more than a V-cycle does per level: PMIS marker
#: rounds, external-row gathering for the interpolation stencils, two
#: distributed SpGEMMs for RAP, and the new level's comm-package
#: construction.  The paper's Fig. 11 measurements (Summit AMG setup 2.0 s
#: vs solve 1.1 s per step) anchor this constant.
SETUP_COMM_ROUNDS = 60

#: Calibrated per-level kernel-launch + device-allocation count of the GPU
#: setup path (hypre issues hundreds of small kernels and cudaMallocs per
#: level during coarsening/interp/RAP).
SETUP_LAUNCHES_PER_LEVEL = 600

#: Launch overhead of a numeric-only level refresh: no coarsening, no
#: symbolic SpGEMM, no comm-package construction — an order of magnitude
#: fewer kernels than full setup.
REFRESH_LAUNCHES_PER_LEVEL = 60

INTERP_KINDS = {
    "direct": direct_interpolation,
    "bamg_direct": bamg_direct_interpolation,
    "mm_ext": mm_ext_interpolation,
    "mm_ext_i": mm_ext_i_interpolation,
}

SMOOTHERS = ("two_stage_gs", "jacobi", "l1_jacobi", "chebyshev")


@dataclass
class AMGOptions(Config):
    """BoomerAMG-style setup and cycle options.

    Defaults follow the paper's pressure-Poisson configuration: aggressive
    PMIS coarsening on the first two levels with two-stage (matrix-based)
    second-stage interpolation, MM-ext interpolation, and a two-stage
    Gauss-Seidel smoother.
    """

    theta: float = field(default=0.25, metadata={"ge": 0.0, "lt": 1.0})
    interp: str = field(default="mm_ext", metadata={"choices": INTERP_KINDS})
    agg_levels: int = 2
    trunc_max_elements: int = 4
    trunc_tol: float = 0.0
    max_levels: int = 20
    coarse_size: int = 64
    smoother: str = field(
        default="two_stage_gs", metadata={"choices": SMOOTHERS}
    )
    smoother_inner: int = 1
    smoother_outer: int = 1
    # Symmetric smoothing (SGS-style) keeps the V-cycle SPD so it can
    # precondition CG; GMRES does not need it.
    smoother_symmetric: bool = False
    seed: int = 42


@dataclass
class AMGLevel:
    """One level of the hierarchy."""

    A: ParCSRMatrix
    P: ParCSRMatrix | None = None
    R: ParCSRMatrix | None = None
    smoother: object | None = None
    cf: np.ndarray | None = None
    #: What one numeric refresh of the next level's operator charges
    #: (:func:`~repro.linalg.spgemm.galerkin_product`'s second result).
    refresh_work: list | None = None


class AMGHierarchy:
    """The assembled multilevel hierarchy (setup phase product)."""

    def __init__(
        self, A: ParCSRMatrix, options: AMGOptions | None = None
    ) -> None:
        self.options = options or AMGOptions()
        self.options.validate()
        self.world = A.world
        self.levels: list[AMGLevel] = []
        self.coarse_lu = None
        self._setup(A)

    # -- setup --------------------------------------------------------------------

    def _make_smoother(self, A: ParCSRMatrix):
        """The level smoother: of what the AMG options can say, each
        registry entry is handed the keywords it declares."""
        opt = self.options
        offered = {
            "inner_sweeps": opt.smoother_inner,
            "outer_sweeps": opt.smoother_outer,
            "sweeps": opt.smoother_outer,
            "symmetric": opt.smoother_symmetric,
            "degree": max(opt.smoother_inner + 1, 2),
        }
        accepted = smoother_options(opt.smoother)
        return make_smoother(
            opt.smoother,
            A,
            **{k: v for k, v in offered.items() if k in accepted},
        )

    def _coarse_offsets(
        self, cf: np.ndarray, fine_offsets: np.ndarray
    ) -> np.ndarray:
        """Coarse rank-block offsets: C-points stay with their owner."""
        nranks = len(fine_offsets) - 1
        counts = np.zeros(nranks, dtype=np.int64)
        cmask = cf == C_POINT
        for r in range(nranks):
            lo, hi = fine_offsets[r], fine_offsets[r + 1]
            counts[r] = int(cmask[lo:hi].sum())
        out = np.zeros(nranks + 1, dtype=np.int64)
        np.cumsum(counts, out=out[1:])
        return out

    def _record_setup_pass(self, A: ParCSRMatrix, kernel: str, passes: float = 1.0) -> None:
        """Record one vectorized pass over a level operator per rank."""
        nnz = [A.local_nnz(r) for r in range(self.world.size)]
        nrows = np.diff(A.row_offsets).tolist()
        self.world.charge(
            kernel,
            [2.0 * passes * z for z in nnz],
            [passes * (12.0 * z + 8.0 * m) for z, m in zip(nnz, nrows)],
            launches=int(np.ceil(passes)),
        )

    def _interp(self, A_csr, S, cf) -> sparse.csr_matrix:
        return INTERP_KINDS[self.options.interp](A_csr, S, cf)

    def _record_setup_comm(self, A_l: ParCSRMatrix) -> None:
        """Record one level's distributed-setup communication and launch
        overhead (see SETUP_COMM_ROUNDS / SETUP_LAUNCHES_PER_LEVEL)."""
        world = self.world
        if world.size > 1:
            avg_row = A_l.nnz / max(A_l.shape[0], 1)
            for r, rx in enumerate(A_l.pattern.per_rank):
                for dst, idx in rx.send_to:
                    world.charge_messages(
                        r,
                        dst,
                        count=SETUP_COMM_ROUNDS,
                        nbytes=int(20.0 * idx.size * (avg_row + 1) * 3.0),
                    )
        world.charge("amg_setup_overhead", launches=SETUP_LAUNCHES_PER_LEVEL)

    def _setup(self, A: ParCSRMatrix) -> None:
        opt = self.options
        rng = np.random.default_rng(opt.seed)
        self.levels.append(AMGLevel(A=A))

        level = 0
        while (
            self.levels[-1].A.shape[0] > opt.coarse_size
            and level < opt.max_levels - 1
        ):
            lvl = self.levels[-1]
            A_l = lvl.A
            A_csr = A_l.A
            fine_offsets = A_l.row_offsets

            S = strength_matrix(A_csr, opt.theta)
            self._record_setup_pass(A_l, "amg_strength")
            self._record_setup_comm(A_l)
            cf1 = pmis_coarsen(S, rng)
            self._record_setup_pass(A_l, "amg_pmis", passes=4.0)
            if not np.any(cf1 == C_POINT):
                # Every row is decoupled (all F): the smoother's job, or the
                # coarse solve's when this is the only level.  Otherwise a
                # C-point has an F neighbor, so every new level is smaller.
                break

            if level < opt.agg_levels:
                # A-1 aggressive coarsening with two-stage interpolation:
                # P = P1 P2 (paper §4.1 / [38]).
                S_agg = aggressive_strength(S)
                self._record_setup_pass(A_l, "amg_strength2", passes=2.0)
                cf_final = second_pass_aggressive(S_agg, cf1, rng)
                self._record_setup_pass(A_l, "amg_pmis", passes=2.0)
                P1 = self._interp(A_csr, S, cf1)
                self._record_setup_pass(A_l, "amg_interp", passes=3.0)
                P1 = truncate_interpolation(
                    P1, opt.trunc_max_elements, opt.trunc_tol
                )
                # First-stage Galerkin operator on the first-pass C set.
                c1_offsets = self._coarse_offsets(cf1, fine_offsets)
                A_c1 = spgemm(
                    self.world,
                    sparse.csr_matrix(P1.T),
                    spgemm(self.world, A_csr, P1, fine_offsets, "agg_ap"),
                    c1_offsets,
                    "agg_rap",
                )
                # Second-stage interpolation within the C1 problem.
                c1_pts = np.flatnonzero(cf1 == C_POINT)
                cf2 = np.where(
                    cf_final[c1_pts] == C_POINT, C_POINT, -1
                ).astype(np.int8)
                S2 = strength_matrix(A_c1, opt.theta)
                P2 = self._interp(A_c1, S2, cf2)
                P2 = truncate_interpolation(
                    P2, opt.trunc_max_elements, opt.trunc_tol
                )
                P_csr = spgemm(
                    self.world, P1, P2, fine_offsets, "agg_p1p2"
                )
                cf = cf_final
            else:
                cf = cf1
                P_csr = self._interp(A_csr, S, cf)
                self._record_setup_pass(A_l, "amg_interp", passes=3.0)
                P_csr = truncate_interpolation(
                    P_csr, opt.trunc_max_elements, opt.trunc_tol
                )

            coarse_offsets = self._coarse_offsets(cf, fine_offsets)

            R_csr = sparse.csr_matrix(P_csr.T)
            A_next_csr, lvl.refresh_work = galerkin_product(
                self.world, R_csr, A_csr, P_csr, fine_offsets, coarse_offsets
            )
            lvl.cf = cf
            lvl.P = ParCSRMatrix(
                self.world,
                P_csr,
                row_offsets=fine_offsets,
                col_offsets=coarse_offsets,
                name=f"P{level}",
            )
            lvl.R = ParCSRMatrix(
                self.world,
                R_csr,
                row_offsets=coarse_offsets,
                col_offsets=fine_offsets,
                name=f"R{level}",
            )
            A_next = ParCSRMatrix(
                self.world, A_next_csr, coarse_offsets, name=f"A{level + 1}"
            )
            self.levels.append(AMGLevel(A=A_next))
            level += 1

        # Smoothers on all non-coarsest levels.
        for lvl in self.levels[:-1]:
            lvl.smoother = self._make_smoother(lvl.A)

        # Coarsest solve: redundant direct factorization (each rank solves
        # the gathered coarse system, a standard bottom-solver strategy).
        Ac = self.levels[-1].A
        self.coarse_lu = splu(Ac.A.tocsc())
        self.world.collective("allgather", 8 * Ac.shape[0])

        # Publish hierarchy-quality telemetry (paper §4.1: grid/operator
        # complexity drive the AMG tuning decisions) and notify observers.
        stats = self.stats()
        metrics = self.world.metrics
        metrics.counter("amg.setups").inc()
        metrics.gauge("amg.levels").set(stats.num_levels)
        metrics.gauge("amg.grid_complexity").set(stats.grid_complexity)
        metrics.gauge("amg.operator_complexity").set(
            stats.operator_complexity
        )
        metrics.histogram("amg.operator_complexity").observe(
            stats.operator_complexity
        )
        self.world.hub.emit("amg_setup", hierarchy=self, stats=stats)

    # -- numeric refresh (pattern-frozen setup reuse) --------------------------------

    def refresh(self, A: ParCSRMatrix | None = None) -> None:
        """Numeric-only setup refresh on the frozen hierarchy structure.

        Keeps the PMIS C/F splittings, the interpolation/restriction
        patterns *and values*, the coarse-level sparsity patterns, and all
        communication structure; recomputes only the Galerkin operator
        values ``A_{l+1} = R A_l P`` level by level (each product costed
        as a numeric-only hash-SpGEMM pass), then rebuilds the smoothers
        and the coarsest factorization on the refreshed values.  This is
        hypre's "reuse interpolation" amortization, and what
        :class:`~repro.core.equation_system.EquationSystem` does when only
        the operator's values moved.  The coarse patterns are structural
        (:mod:`repro.linalg.spgemm`), so no values can fail to fit them.

        Args:
            A: optionally, a replacement fine operator.  Must have the
                same shape and sparsity (nnz) as the current level-0
                operator; omit it when the operator was updated in place
                by the assembly fast path.
        """
        lvl0 = self.levels[0]
        if A is not None and A is not lvl0.A:
            if A.shape != lvl0.A.shape or A.nnz != lvl0.A.nnz:
                raise ValueError(
                    "refresh requires an identical fine-level pattern; "
                    "rebuild the hierarchy instead"
                )
            lvl0.A = A
        world = self.world
        for k in range(len(self.levels) - 1):
            lvl = self.levels[k]
            A_next = self.levels[k + 1].A
            A_next.refresh_values(
                galerkin_refresh(
                    world,
                    lvl.R.A,
                    lvl.A.A,
                    lvl.P.A,
                    A_next.A,
                    lvl.refresh_work,
                )
            )
            world.charge(
                "amg_refresh_overhead", launches=REFRESH_LAUNCHES_PER_LEVEL
            )

        for lvl in self.levels[:-1]:
            lvl.smoother = self._make_smoother(lvl.A)

        Ac = self.levels[-1].A
        self.coarse_lu = splu(Ac.A.tocsc())
        world.collective("allgather", 8 * Ac.shape[0])

        self.world.metrics.counter("amg.refresh_count").inc()
        self.world.hub.emit("amg_refresh", hierarchy=self, stats=self.stats())

    def release(self) -> None:
        """Return the hierarchy's device storage (rebuild or teardown).

        Level 0's operator is owned by the caller and left untouched.
        """
        for k, lvl in enumerate(self.levels):
            if k > 0:
                lvl.A.release()
            if lvl.P is not None:
                lvl.P.release()
            if lvl.R is not None:
                lvl.R.release()

    # -- diagnostics ----------------------------------------------------------------

    @property
    def num_levels(self) -> int:
        """Number of levels including the coarsest."""
        return len(self.levels)

    def operator_complexity(self) -> float:
        """sum(nnz(A_l)) / nnz(A_0)."""
        nnz0 = max(self.levels[0].A.nnz, 1)
        return sum(l.A.nnz for l in self.levels) / nnz0

    def grid_complexity(self) -> float:
        """sum(n_l) / n_0."""
        n0 = max(self.levels[0].A.shape[0], 1)
        return sum(l.A.shape[0] for l in self.levels) / n0

    def level_sizes(self) -> list[tuple[int, int]]:
        """Per level ``(rows, nnz)``."""
        return [(l.A.shape[0], l.A.nnz) for l in self.levels]

    def stats(self) -> AMGSetupStats:
        """Telemetry-ready hierarchy quality summary."""
        return AMGSetupStats.from_level_sizes(self.level_sizes())

    def level_table(self) -> str:
        """Human-readable hierarchy summary (hypre's setup printout)."""
        lines = [
            "lvl        rows         nnz  nnz/row  coarsen",
            "---  ----------  ----------  -------  -------",
        ]
        for k, lvl in enumerate(self.levels):
            n, nnz = lvl.A.shape[0], lvl.A.nnz
            ratio = (
                f"{n / self.levels[k + 1].A.shape[0]:6.2f}x"
                if k + 1 < len(self.levels)
                else "      -"
            )
            lines.append(
                f"{k:3d}  {n:10d}  {nnz:10d}  {nnz / max(n, 1):7.2f}  {ratio}"
            )
        lines.append(
            f"operator complexity {self.operator_complexity():.2f}, "
            f"grid complexity {self.grid_complexity():.2f}"
        )
        return "\n".join(lines)
