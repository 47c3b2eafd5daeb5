"""Gram-Schmidt orthogonalization kernels with reduction accounting.

The Nalu-Wind time integrator "employs the one-reduce GMRES linear solver"
(paper §4.2, ref [39] Swirydowicz/Langou/Ananthan/Yang/Thomas): at scale,
the global ``MPI_Allreduce`` per dot product dominates the Arnoldi step, so
low-synchronization variants batch all inner products of an iteration into
one reduction.  Three kernels are provided:

* ``mgs`` — classical modified Gram-Schmidt: ``j + 1`` sequential
  reductions at Arnoldi step ``j`` (baseline);
* ``cgs2`` — reorthogonalized classical GS: 3 batched reductions;
* ``one_reduce`` — CGS2 with the normalization lagged and fused into the
  projection reduction: exactly 1 reduction per iteration, plus a second
  one on the rare step whose Pythagorean norm estimate cancels
  (``est <= 1e-10 ||w||^2``, i.e. ``w`` numerically in ``span(V)``) and
  the norm is recomputed.

Numerically ``cgs2`` and ``one_reduce`` produce the same Krylov basis up to
rounding (both are CGS2-class); they differ in the *communication schedule*,
which is what the recorder captures.

Every inner product and norm is :func:`~repro.linalg.parvector.global_dot`
over the rank row blocks ``offsets``, and every ``V @ h`` is a fixed-order
``einsum``, so the basis does not depend on the BLAS thread count.
"""

from __future__ import annotations

import numpy as np

from repro.comm.simcomm import SimWorld
from repro.linalg.parvector import global_dot

VARIANTS = ("mgs", "cgs2", "one_reduce")


def batched_dots(
    world: SimWorld,
    V: np.ndarray,
    w: np.ndarray,
    offsets: np.ndarray,
    count_as: int = 1,
) -> np.ndarray:
    """All inner products ``V[:, :k]^T w`` with ``count_as`` reductions.

    ``V`` holds basis vectors in columns, distributed over the row blocks
    ``offsets``.  The per-rank partial GEMV work is recorded, then a single
    (or ``count_as``) fused allreduce of the ``k`` partials — the
    communication pattern the low-sync variants exist for.
    """
    k = V.shape[1]
    out = global_dot(V, w, offsets)
    # Per-rank compute share: charge each rank its row-block share of the
    # multi-dot.
    per_rank = w.size / world.size
    world.charge("multidot", 2.0 * k * per_rank, 8.0 * (k + 1) * per_rank)
    for _ in range(count_as):
        world.collective("allreduce", 8 * k)
    return out


def _combine(V: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``V @ h`` in a fixed order: ``dgemv`` splits a long ``V`` across
    BLAS threads, which moves the bits."""
    return np.einsum("ij,j->i", V, h, optimize=False)


def _record_axpy_block(world: SimWorld, n: int, k: int, kernel: str) -> None:
    per_rank = n / world.size
    world.charge(kernel, 2.0 * k * per_rank, 8.0 * (k + 2) * per_rank)


def orthogonalize(
    world: SimWorld,
    V: np.ndarray,
    w: np.ndarray,
    offsets: np.ndarray,
    variant: str = "one_reduce",
) -> tuple[np.ndarray, float]:
    """Orthogonalize ``w`` against the columns of ``V`` in place.

    Args:
        world: for reduction accounting.
        V: ``(n, j)`` orthonormal basis.
        w: vector to orthogonalize (modified in place).
        offsets: the ``world.size + 1`` rank row-block bounds of ``V``
            and ``w``; each inner product sums their partials in rank
            order.
        variant: one of :data:`VARIANTS`.

    Returns:
        ``(h, beta)``: projection coefficients ``(j,)`` and the norm of the
        orthogonalized vector.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; options {VARIANTS}")
    n, j = V.shape
    if j == 0:
        beta = float(np.sqrt(global_dot(w, w, offsets)))
        world.collective("allreduce", 8)
        return np.zeros(0), beta

    if variant == "mgs":
        h = np.zeros(j)
        for i in range(j):
            hi = batched_dots(world, V[:, i : i + 1], w, offsets)[0]
            w -= hi * V[:, i]
            _record_axpy_block(world, n, 1, "mgs_axpy")
            h[i] = hi
        beta = float(np.sqrt(global_dot(w, w, offsets)))
        world.collective("allreduce", 8)
        return h, beta

    if variant == "cgs2":
        h1 = batched_dots(world, V, w, offsets, count_as=1)
        w -= _combine(V, h1)
        _record_axpy_block(world, n, j, "cgs_update")
        h2 = batched_dots(world, V, w, offsets, count_as=1)
        w -= _combine(V, h2)
        _record_axpy_block(world, n, j, "cgs_update")
        beta = float(np.sqrt(global_dot(w, w, offsets)))
        world.collective("allreduce", 8)
        return h1 + h2, beta
    # one_reduce: delayed reorthogonalization fuses the first projection,
    # the correction dots, and the norm estimate into a single reduction
    # per Arnoldi step (Swirydowicz et al. [39]).  The arithmetic below is
    # the same reorthogonalized CGS2 projection; exactly one reduction of
    # 2j+1 scalars is charged.
    h1 = batched_dots(world, V, w, offsets, count_as=0)
    w -= _combine(V, h1)
    _record_axpy_block(world, n, j, "cgs_update")
    # The correction GEMV and the fused norm partial are real kernel
    # work: record them exactly like ``batched_dots`` does, or their
    # flops/bytes silently vanish from the roofline and timeline while
    # the fused reduction below still charges their communication.
    h2 = batched_dots(world, V, w, offsets, count_as=0)
    nrm2 = float(global_dot(w, w, offsets))
    per_rank = n / world.size
    world.charge("multidot", 2.0 * per_rank, 8.0 * 2 * per_rank)
    world.collective("allreduce", 8 * (2 * j + 1))
    w -= _combine(V, h2)
    _record_axpy_block(world, n, j, "cgs_update")
    # Norm of the reorthogonalized vector via the Pythagorean update
    # (Swirydowicz et al.): ||w_new||^2 = ||w||^2 - ||h2||^2, guarded for
    # cancellation.
    est = nrm2 - float(h2 @ h2)
    if est <= 1e-10 * max(nrm2, 1e-300):
        beta = float(np.sqrt(global_dot(w, w, offsets)))
        world.collective("allreduce", 8)
    else:
        beta = float(np.sqrt(est))
    return h1 + h2, beta
