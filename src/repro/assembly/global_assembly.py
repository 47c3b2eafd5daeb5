"""Stage 3: hypre global assembly (paper Algorithms 1 and 2).

Each rank holds an owned COO (rows it owns) and a send COO (contributions
to rows owned by other ranks), both sorted row-major and duplicate-free —
the Stage 2 output.  Algorithm 1 exchanges the send pieces, stacks received
entries after the owned ones in a preallocated buffer (``nnz_local = nnz_own
+ max(nnz_send, nnz_recv)``, the paper's memory precondition enabled by the
pre-computed ``nnz_recv``), runs ``stable_sort_by_key`` + ``reduce_by_key``,
and splits the result into the ``diag``/``offd`` ParCSR blocks.

Algorithm 2 does the vector analogue, with the optimization the paper calls
out: because the owned RHS is already dense and sorted, only the *received*
entries are sorted and reduced ("Because n_recv << n_own, applying the sort
and reduce steps over a much smaller data structure has shown nontrivial
performance advantages").

Three matrix variants are provided, matching the paper's discussion:

* ``optimized`` — the branch algorithm above (the paper's contribution);
* ``sparse_add`` — sort/reduce only the received entries, then add two CSR
  matrices (the cuSPARSE-style alternative: "little performance benefit
  ... one benefit is the memory usage");
* ``general`` — hypre's stock path, which cannot assume sortedness or
  pre-sized buffers: it re-sorts and deduplicates everything with extra
  staging copies ("more device memory, more data motion, and more complex
  algorithms") — the Fig. 3 baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.assembly.local import LocalSystem, RankCOO, RankRHS
from repro.assembly.plan import AssemblyPlan, _RankMatrixPlan, _RankVectorPlan
from repro.assembly.primitives import (
    record_reduce_cost,
    record_sort_cost,
    sort_reduce_by_key,
)
from repro.comm.simcomm import SimWorld
from repro.linalg.parcsr import ParCSRMatrix, index_dtype
from repro.linalg.parvector import ParVector
from repro.partition.renumber import RankNumbering

VARIANTS = ("optimized", "sparse_add", "general")


@dataclass
class AssembledMatrix:
    """Result of the global matrix assembly."""

    matrix: ParCSRMatrix
    diag_nnz: list[int]
    offd_nnz: list[int]


def _split_send(
    coo: RankCOO, offsets: np.ndarray, nranks: int, self_rank: int
) -> tuple[
    list[tuple[np.ndarray, np.ndarray, np.ndarray] | None],
    np.ndarray | None,
]:
    """Split a (row-sorted) send COO by destination owner rank.

    Also returns the destination split bounds (or ``None`` for an empty
    COO) so a pattern-frozen plan can replay the split on values only.
    Ids travel as ``int64`` (hypre's ``HYPRE_BigInt``), whatever width
    the graph stores them at.
    """
    out: list[tuple[np.ndarray, np.ndarray, np.ndarray] | None] = [
        None
    ] * nranks
    if coo.nnz == 0:
        return out, None
    bounds = np.searchsorted(coo.i, offsets)
    for q in range(nranks):
        lo, hi = bounds[q], bounds[q + 1]
        if q == self_rank or hi <= lo:
            continue
        out[q] = (
            coo.i[lo:hi].astype(np.int64),
            coo.j[lo:hi].astype(np.int64),
            coo.a[lo:hi],
        )
    return out, bounds


def assemble_global_matrix(
    world: SimWorld,
    numbering: RankNumbering,
    local: LocalSystem,
    variant: str = "optimized",
    name: str = "A",
    plan: AssemblyPlan | None = None,
) -> AssembledMatrix:
    """Run Algorithm 1 (or a variant) across all ranks.

    When a :class:`~repro.assembly.plan.AssemblyPlan` is passed, the cold
    path additionally captures the pattern artifacts into it; once the
    plan is ``matrix_ready`` the call short-circuits into the value-only
    fast path (same exchange/reduce semantics, no sort, no re-split, no
    reallocation) and updates the plan's matrix in place.

    Returns:
        The globally consistent :class:`~repro.linalg.ParCSRMatrix` plus
        per-rank diag/offd nonzero counts.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; options {VARIANTS}")
    if plan is not None and plan.variant != variant:
        raise ValueError(
            f"plan was captured for variant {plan.variant!r}, not {variant!r}"
        )
    if plan is not None and plan.matrix_ready:
        matrix, diag_nnz, offd_nnz = plan.run_matrix(world, local)
        return AssembledMatrix(
            matrix=matrix, diag_nnz=diag_nnz, offd_nnz=offd_nnz
        )
    if plan is not None:
        plan.begin_matrix_capture()
    offsets = numbering.offsets
    nranks = numbering.nranks

    # Steps 2-3: exchange the send COOs.
    send = []
    for r in range(nranks):
        pieces, bounds = _split_send(
            local.send_matrix[r], offsets, nranks, r
        )
        send.append(pieces)
        if plan is not None:
            plan._mat_send_bounds.append(bounds)
    recv = world.alltoallv(send)

    rows_out: list[np.ndarray] = []
    cols_out: list[np.ndarray] = []
    vals_out: list[np.ndarray] = []
    diag_nnz: list[int] = []
    offd_nnz: list[int] = []
    for r in range(nranks):
        own = local.own_matrix[r]
        ri = [own.i] + [p[0] for p in recv[r]]
        rj = [own.j] + [p[1] for p in recv[r]]
        ra = [own.a] + [p[2] for p in recv[r]]
        i_all = np.concatenate(ri)
        j_all = np.concatenate(rj)
        a_all = np.concatenate(ra)
        nnz_recv = i_all.size - own.nnz
        nnz_send = local.send_matrix[r].nnz
        nnz_local = own.nnz + max(nnz_send, nnz_recv)

        recv_perm = recv_starts = None
        if variant == "optimized":
            # Stacked contiguous buffers of size nnz_local (precondition)
            # plus the radix sort's ping-pong workspace over the full
            # stacked range.
            staged = 40.0 * nnz_local
            world.charge_alloc(staged, ranks=[r])
            (i_u, j_u), a_u, perm, starts = sort_reduce_by_key(
                (i_all, j_all), a_all
            )
            record_sort_cost(world, r, i_all.size, 16, kernel="asm_sort")
            record_reduce_cost(world, r, i_all.size, 16, kernel="asm_reduce")
        elif variant == "sparse_add":
            # Sort/reduce only the received entries, then CSR + CSR: the
            # sort workspace covers only nnz_recv — the paper's observed
            # memory advantage of this variant.
            staged = 20.0 * (own.nnz + nnz_recv) + 20.0 * nnz_recv
            world.charge_alloc(staged, ranks=[r])
            i_r = i_all[own.nnz :]
            j_r = j_all[own.nnz :]
            a_r = a_all[own.nnz :]
            (i_ru, j_ru), a_ru, recv_perm, recv_starts = sort_reduce_by_key(
                (i_r, j_r), a_r
            )
            record_sort_cost(world, r, i_r.size, 16, kernel="asm_sort")
            record_reduce_cost(world, r, i_r.size, 16, kernel="asm_reduce")
            # Merge (sparse addition): one pass over both operands.
            (i_u, j_u), a_u, perm, starts = sort_reduce_by_key(
                (
                    np.concatenate([own.i, i_ru]),
                    np.concatenate([own.j, j_ru]),
                ),
                np.concatenate([own.a, a_ru]),
            )
            world.charge(
                "asm_spadd",
                float(i_u.size),
                20.0 * (own.nnz + i_ru.size + i_u.size),
                launches=2,
                ranks=[r],
            )
        else:  # general
            # Stock path: staging copies, full sort of everything without
            # assuming Stage-2 sortedness, dedup pass, second compaction.
            # Staging copies + two full sorts' workspaces + dedup buffer.
            staged = (
                2.0 * 40.0 * (own.nnz + max(nnz_recv, nnz_send))
                + 20.0 * own.nnz
            )
            world.charge_alloc(staged, ranks=[r])
            (i_u, j_u), a_u, perm, starts = sort_reduce_by_key(
                (i_all, j_all), a_all
            )
            record_sort_cost(world, r, i_all.size, 16, kernel="asm_sort")
            # A general implementation cannot trust pre-reduced input: it
            # sorts, reduces, then re-checks/compacts with extra passes.
            record_sort_cost(world, r, i_all.size, 16, kernel="asm_sort")
            record_reduce_cost(world, r, i_all.size, 16, kernel="asm_reduce")
            record_reduce_cost(world, r, i_u.size, 16, kernel="asm_reduce")

        # Step 7: split into diag/offd by column ownership.
        clo, chi = offsets[r], offsets[r + 1]
        in_diag = (j_u >= clo) & (j_u < chi)
        diag_nnz.append(int(in_diag.sum()))
        offd_nnz.append(int(i_u.size - in_diag.sum()))
        if plan is not None:
            plan._mat.append(
                _RankMatrixPlan(
                    own_nnz=own.nnz,
                    perm=perm,
                    starts=starts,
                    recv_perm=recv_perm,
                    recv_starts=recv_starts,
                )
            )
        world.charge(
            "asm_split", nbytes=20.0 * i_u.size * 2.0, launches=2, ranks=[r]
        )
        # Staging buffers are transient; the assembled matrix's storage is
        # accounted by the ParCSRMatrix constructor below.
        world.charge_alloc(-staged, ranks=[r])
        rows_out.append(i_u)
        cols_out.append(j_u)
        vals_out.append(a_u)

    n = int(offsets[-1])
    A = sparse.csr_matrix(
        (
            np.concatenate(vals_out),
            (np.concatenate(rows_out), np.concatenate(cols_out)),
        ),
        shape=(n, n),
    )
    matrix = ParCSRMatrix(world, A, offsets, name=name)
    if plan is not None:
        plan.matrix = matrix
        plan.diag_nnz = list(diag_nnz)
        plan.offd_nnz = list(offd_nnz)
        plan.matrix_ready = True
        world.metrics.counter(
            "assembly.plan_rebuilds", equation=name
        ).inc()
    return AssembledMatrix(matrix=matrix, diag_nnz=diag_nnz, offd_nnz=offd_nnz)


def assemble_global_vector(
    world: SimWorld,
    numbering: RankNumbering,
    local: LocalSystem,
    variant: str = "optimized",
    plan: AssemblyPlan | None = None,
) -> ParVector:
    """Run Algorithm 2 (or the general variant) across all ranks.

    As with :func:`assemble_global_matrix`, passing a plan captures the
    RHS pattern artifacts on the cold pass and replays them (value-only
    exchange + segmented sum) once the plan is ``vector_ready``.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; options {VARIANTS}")
    if plan is not None and plan.variant != variant:
        raise ValueError(
            f"plan was captured for variant {plan.variant!r}, not {variant!r}"
        )
    if plan is not None and plan.vector_ready:
        return plan.run_vector(world, local)
    if plan is not None:
        plan.begin_vector_capture()
    offsets = numbering.offsets
    nranks = numbering.nranks

    # Exchange shared RHS entries.
    send: list[list] = []
    for r in range(nranks):
        srhs = local.send_rhs[r]
        row = [None] * nranks
        bounds = None
        if srhs.n:
            bounds = np.searchsorted(srhs.i, offsets)
            for q in range(nranks):
                lo, hi = bounds[q], bounds[q + 1]
                if q != r and hi > lo:
                    row[q] = (srhs.i[lo:hi].astype(np.int64), srhs.r[lo:hi])
        send.append(row)
        if plan is not None:
            plan._vec_send_bounds.append(bounds)
    recv = world.alltoallv(send)

    out = ParVector(world, offsets)
    for r in range(nranks):
        own = local.own_rhs[r]
        lo = offsets[r]
        target = out.local(r)
        if variant == "general":
            # Sort/reduce the full stacked buffer (owned + received).
            i_all = np.concatenate([own.i] + [p[0] for p in recv[r]])
            v_all = np.concatenate([own.r] + [p[1] for p in recv[r]])
            (i_u,), v_u, perm, starts = sort_reduce_by_key((i_all,), v_all)
            record_sort_cost(world, r, i_all.size, 8, kernel="vec_sort")
            record_reduce_cost(world, r, i_all.size, 8, kernel="vec_reduce")
            target[i_u - lo] = v_u
            world.charge_alloc(16.0 * i_all.size, ranks=[r])
            world.charge_alloc(-16.0 * i_all.size, ranks=[r])
        else:
            # Algorithm 2: sort/reduce only the received values, then copy
            # the dense owned RHS and scatter-add the reduced receipts.
            i_r = np.concatenate([p[0] for p in recv[r]]) if recv[r] else (
                np.zeros(0, dtype=np.int64)
            )
            v_r = np.concatenate([p[1] for p in recv[r]]) if recv[r] else (
                np.zeros(0)
            )
            target[:] = own.r  # step 6: RHS <- RHS_own
            perm = starts = np.zeros(0, dtype=index_dtype(0))
            i_u = np.zeros(0, dtype=np.int64)
            if i_r.size:
                (i_u,), v_u, perm, starts = sort_reduce_by_key((i_r,), v_r)
                record_sort_cost(world, r, i_r.size, 8, kernel="vec_sort")
                record_reduce_cost(world, r, i_r.size, 8, kernel="vec_reduce")
                target[i_u - lo] += v_u  # step 7: scatter-add
            world.charge(
                "vec_copy",
                float(i_r.size),
                16.0 * own.n + 24.0 * i_r.size,
                launches=2,
                ranks=[r],
            )
            vec_staged = 8.0 * (
                own.n + max(i_r.size, local.send_rhs[r].n)
            )
            world.charge_alloc(vec_staged, ranks=[r])
            world.charge_alloc(-vec_staged, ranks=[r])
        if plan is not None:
            plan._vec.append(
                _RankVectorPlan(
                    own_n=own.n,
                    perm=perm,
                    starts=starts,
                    target=(i_u - lo).astype(index_dtype(own.n)),
                )
            )
    if plan is not None:
        plan.vector_ready = True
        world.metrics.counter(
            "assembly.vector_plan_rebuilds", equation=plan.name
        ).inc()
    return out
