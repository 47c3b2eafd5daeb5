"""Trilinear hex shape functions and inverse isoparametric mapping.

Overset donor interpolation (TIOGA's role, paper §2) evaluates receptor
values from the 8 nodes of the containing donor hex with trilinear weights.
Finding the weights requires inverting the isoparametric map
``x(xi) = sum_i N_i(xi) x_i`` for the reference coordinates ``xi`` of the
receptor point; we do that with a vectorized Newton iteration over all
receptor/candidate pairs at once.
"""

from __future__ import annotations

import numpy as np

# Reference-corner signs in the standard hex8 ordering used by
# repro.mesh.topology (bottom face CCW, then top face CCW).
_CORNERS = np.array(
    [
        [-1, -1, -1],
        [1, -1, -1],
        [1, 1, -1],
        [-1, 1, -1],
        [-1, -1, 1],
        [1, -1, 1],
        [1, 1, 1],
        [-1, 1, 1],
    ],
    dtype=np.float64,
)


def shape_functions(xi: np.ndarray) -> np.ndarray:
    """Trilinear shape functions.

    Args:
        xi: ``(m, 3)`` reference coordinates in ``[-1, 1]^3``.

    Returns:
        ``(m, 8)`` weights; rows sum to 1 for any ``xi``.
    """
    xi = np.atleast_2d(xi)
    terms = 1.0 + xi[:, None, :] * _CORNERS[None, :, :]
    return 0.125 * terms.prod(axis=2)


def shape_gradients(xi: np.ndarray) -> np.ndarray:
    """d N_i / d xi_d: ``(m, 8, 3)``."""
    xi = np.atleast_2d(xi)
    terms = 1.0 + xi[:, None, :] * _CORNERS[None, :, :]  # (m, 8, 3)
    # Component d is the product of the two *other* directions' terms.
    return (0.125 * _CORNERS) * (terms[:, :, [1, 0, 0]] * terms[:, :, [2, 2, 1]])


def _newton_step(jac_t: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Solve ``jac_t[p] @ dxi[p] = res[p]`` for every pair on its own.

    A singular Jacobian (collapsed cell) gets the pseudo-inverse; the
    regular pairs of the same batch are still solved exactly as they would
    be alone.
    """
    try:
        return np.linalg.solve(jac_t, res[:, :, None])[..., 0]
    except np.linalg.LinAlgError:
        # LAPACK reports singular exactly when a pivot of the LU is zero,
        # which is when the determinant of that same LU is.
        singular = np.linalg.det(jac_t) == 0.0
        dxi = np.empty_like(res)
        regular = ~singular
        dxi[regular] = np.linalg.solve(
            jac_t[regular], res[regular][:, :, None]
        )[..., 0]
        dxi[singular] = (
            np.linalg.pinv(jac_t[singular]) @ res[singular][:, :, None]
        )[..., 0]
        return dxi


def invert_map(
    corners: np.ndarray,
    points: np.ndarray,
    iters: int = 15,
    tol: float = 1e-24,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert the trilinear map for a batch of (cell, point) pairs.

    Active-set Newton: a pair leaves the batch, frozen at its current
    ``xi``, at the iteration its residual test passes.  Every operation is
    per pair, so the ``xi`` and flag of a pair depend on that pair alone —
    not on which other pairs share the batch, their order, or their number.

    Args:
        corners: ``(m, 8, 3)`` physical corner coordinates.
        points: ``(m, 3)`` target physical points.
        iters: Newton iterations.
        tol: squared-residual convergence threshold.

    Returns:
        ``(xi, converged)``: reference coordinates ``(m, 3)`` and a boolean
        convergence/containment-quality flag per pair (Newton residual
        small; containment is judged by the caller from ``xi``).
    """
    m = points.shape[0]
    xi = np.zeros((m, 3))
    ok = np.zeros(m, dtype=bool)
    active = np.arange(m)
    x = xi
    limit = tol * (np.einsum("mid,mid->m", corners, corners) / 8.0 + 1e-300)
    for _ in range(iters):
        N = shape_functions(x)  # (a, 8)
        res = points - np.einsum("mi,mid->md", N, corners)
        done = np.einsum("md,md->m", res, res) <= limit
        if done.any():
            ok[active[done]] = True
            xi[active[done]] = x[done]
            keep = ~done
            active = active[keep]
            x, res, limit = x[keep], res[keep], limit[keep]
            points, corners = points[keep], corners[keep]
        if active.size == 0:
            break
        J = np.einsum("mid,mie->mde", shape_gradients(x), corners)
        # J[p] is dx/dxi transposed; Newton solves J^T dxi = res per pair.
        x = np.clip(x + _newton_step(np.swapaxes(J, 1, 2), res), -2.0, 2.0)
    xi[active] = x
    return xi, ok


def contains(xi: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Whether reference coordinates fall inside the element."""
    return np.all(np.abs(xi) <= 1.0 + tol, axis=1)
