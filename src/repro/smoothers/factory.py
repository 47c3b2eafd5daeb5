"""Unified smoother construction (the preconditioner-side API redesign).

Every relaxation scheme in :mod:`repro.smoothers` is reachable through one
registry with uniform keyword options, mirroring how hypre selects
smoothers by an enum + a small option set rather than per-class
constructors.  :func:`make_smoother` is the only sanctioned construction
path; repro-lint's RL004 flags direct class construction anywhere else
in ``src/``.

The registry below is the whole table: name -> class, the keywords the
entry fixes, and the options (all keyword-only) with their defaults.
"""

from __future__ import annotations

from repro.linalg.parcsr import ParCSRMatrix
from repro.smoothers.chebyshev import ChebyshevSmoother
from repro.smoothers.gauss_seidel import HybridGS
from repro.smoothers.jacobi import JacobiSmoother, L1JacobiSmoother
from repro.smoothers.two_stage_gs import TwoStageGS

_HYBRID_GS = (HybridGS, {}, {"outer_sweeps": 1, "symmetric": False})

#: name -> (class, fixed keywords, option defaults).
_REGISTRY: dict[str, tuple[type, dict, dict]] = {
    "jacobi": (JacobiSmoother, {}, {"omega": 0.8, "sweeps": 1}),
    "l1_jacobi": (L1JacobiSmoother, {}, {"sweeps": 1}),
    "gauss_seidel": _HYBRID_GS,
    "hybrid_gs": _HYBRID_GS,
    "two_stage_gs": (
        TwoStageGS,
        {},
        {"inner_sweeps": 1, "outer_sweeps": 1, "symmetric": False},
    ),
    # Paper §4.2's momentum preconditioner: symmetric two-stage GS with
    # two outer and two inner iterations.
    "sgs2": (
        TwoStageGS,
        {"symmetric": True},
        {"inner_sweeps": 2, "outer_sweeps": 2},
    ),
    "chebyshev": (
        ChebyshevSmoother,
        {},
        {"degree": 3, "eig_ratio": 0.30, "eig_max": None},
    ),
}

#: Public registry names, for config validation and error messages.
SMOOTHER_NAMES = tuple(sorted(_REGISTRY))

#: Concrete class names behind the registry.  repro-lint's RL004 flags
#: direct construction of any of these outside :mod:`repro.smoothers`;
#: :func:`make_smoother` is the sanctioned path.
SMOOTHER_CLASS_NAMES = tuple(
    sorted({cls.__name__ for cls, _fixed, _defaults in _REGISTRY.values()})
)


def _entry(name: str) -> tuple[type, dict, dict]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown smoother {name!r}; options {list(SMOOTHER_NAMES)}"
        ) from None


def smoother_options(name: str) -> dict:
    """Option names of a registry entry, with their defaults."""
    return dict(_entry(name)[2])


def make_smoother(name: str, A: ParCSRMatrix, **opts):
    """Build a smoother / relaxation preconditioner by registry name.

    Args:
        name: one of :data:`SMOOTHER_NAMES`.
        A: the operator to smooth.
        **opts: scheme options (see :func:`smoother_options`); an unknown
            option raises ``TypeError``.

    Returns:
        An object with the uniform ``smooth(b, x)`` / ``apply(r)`` surface.
    """
    cls, fixed, defaults = _entry(name)
    unknown = sorted(set(opts) - set(defaults))
    if unknown:
        raise TypeError(
            f"smoother {name!r} got unexpected options {unknown}; "
            f"accepted {sorted(defaults)}"
        )
    return cls(A, **fixed, **{**defaults, **opts})
