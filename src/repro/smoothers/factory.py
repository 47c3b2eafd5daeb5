"""Unified smoother construction (the preconditioner-side API redesign).

Every relaxation scheme in :mod:`repro.smoothers` is reachable through one
registry with uniform keyword options, mirroring how hypre selects
smoothers by an enum + a small option set rather than per-class
constructors.  :func:`make_smoother` is the only sanctioned construction
path; repro-lint's RL004 flags direct class construction anywhere else
in ``src/``.

Registry names and their options:

=============== =================================================== ==========
name            options (all keyword-only)                          class
=============== =================================================== ==========
``jacobi``      ``omega=0.8, sweeps=1``                             JacobiSmoother
``l1_jacobi``   ``sweeps=1``                                        L1JacobiSmoother
``gauss_seidel``/``hybrid_gs`` ``outer_sweeps=1, symmetric=False``  HybridGS
``two_stage_gs``  ``inner_sweeps=1, outer_sweeps=1, symmetric=False`` TwoStageGS
``sgs2``        ``inner_sweeps=2, outer_sweeps=2``                  TwoStageGS (symmetric)
``chebyshev``   ``degree=3, eig_ratio=0.30, eig_max=None``          ChebyshevSmoother
=============== =================================================== ==========
"""

from __future__ import annotations

from typing import Callable

from repro.linalg.parcsr import ParCSRMatrix
from repro.smoothers.chebyshev import ChebyshevSmoother
from repro.smoothers.gauss_seidel import HybridGS
from repro.smoothers.jacobi import JacobiSmoother, L1JacobiSmoother
from repro.smoothers.two_stage_gs import TwoStageGS


def _jacobi(A: ParCSRMatrix, *, omega: float = 0.8, sweeps: int = 1):
    return JacobiSmoother(A, omega=omega, sweeps=sweeps)


def _l1_jacobi(A: ParCSRMatrix, *, sweeps: int = 1):
    return L1JacobiSmoother(A, sweeps=sweeps)


def _hybrid_gs(
    A: ParCSRMatrix, *, outer_sweeps: int = 1, symmetric: bool = False
):
    return HybridGS(A, outer_sweeps=outer_sweeps, symmetric=symmetric)


def _two_stage_gs(
    A: ParCSRMatrix,
    *,
    inner_sweeps: int = 1,
    outer_sweeps: int = 1,
    symmetric: bool = False,
):
    return TwoStageGS(
        A,
        inner_sweeps=inner_sweeps,
        outer_sweeps=outer_sweeps,
        symmetric=symmetric,
    )


def _sgs2(A: ParCSRMatrix, *, inner_sweeps: int = 2, outer_sweeps: int = 2):
    # Paper §4.2's momentum preconditioner: symmetric two-stage GS with
    # two outer and two inner iterations.
    return TwoStageGS(
        A,
        inner_sweeps=inner_sweeps,
        outer_sweeps=outer_sweeps,
        symmetric=True,
    )


def _chebyshev(
    A: ParCSRMatrix,
    *,
    degree: int = 3,
    eig_ratio: float = 0.30,
    eig_max: float | None = None,
):
    return ChebyshevSmoother(
        A, degree=degree, eig_ratio=eig_ratio, eig_max=eig_max
    )


_REGISTRY: dict[str, Callable] = {
    "jacobi": _jacobi,
    "l1_jacobi": _l1_jacobi,
    "gauss_seidel": _hybrid_gs,
    "hybrid_gs": _hybrid_gs,
    "two_stage_gs": _two_stage_gs,
    "sgs2": _sgs2,
    "chebyshev": _chebyshev,
}

#: Public registry names, for config validation and error messages.
SMOOTHER_NAMES = tuple(sorted(_REGISTRY))

#: Concrete class names behind the registry.  repro-lint's RL004 flags
#: direct construction of any of these outside :mod:`repro.smoothers`;
#: :func:`make_smoother` is the sanctioned path.
SMOOTHER_CLASS_NAMES = (
    "ChebyshevSmoother",
    "HybridGS",
    "JacobiSmoother",
    "L1JacobiSmoother",
    "TwoStageGS",
)


def make_smoother(name: str, A: ParCSRMatrix, **opts):
    """Build a smoother / relaxation preconditioner by registry name.

    Args:
        name: one of :data:`SMOOTHER_NAMES`.
        A: the operator to smooth.
        **opts: scheme options (see the module table); unknown options
            raise ``TypeError`` via the builder signature.

    Returns:
        An object with the uniform ``smooth(b, x)`` / ``apply(r)`` surface.
    """
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown smoother {name!r}; options {list(SMOOTHER_NAMES)}"
        ) from None
    return builder(A, **opts)
