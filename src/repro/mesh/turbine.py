"""Scaled NREL 5-MW turbine mesh systems (Table 1 analogues).

The paper's three workloads (Table 1) are a 23.0M-node single-turbine mesh,
a 44.2M-node dual-turbine mesh, and a 634.5M-node refined single-turbine
mesh (3x the low resolution in each direction: 634.5/23.0 = 27.6 ~= 3.02^3).
We reproduce the same family at ~1/1000 scale with the same construction
rules: per turbine, three body-fitted blade meshes (120 degrees apart, as in
Fig. 1) overset onto a graded background block; the refined case multiplies
every direction count by the refinement factor.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.mesh.generators import (
    BladeSpec,
    blade_block,
    blade_lattice,
    make_background_mesh,
)
from repro.mesh.hexmesh import HexMesh
from repro.mesh.motion import RigidRotation

#: Rotor radius of the notional turbine (NREL 5-MW: 126 m rotor -> 63 m).
ROTOR_RADIUS = 63.0


@dataclass
class TurbineMeshSystem:
    """An overset system of component meshes for one simulation.

    Attributes:
        name: workload name (``turbine_low`` etc.).
        background: the wake-capturing background mesh.
        blades: body-fitted blade meshes (3 per turbine).
        rotations: per-blade rigid rotations (rotor motion).
    """

    name: str
    background: HexMesh
    blades: list[HexMesh]
    rotations: list[RigidRotation]

    @property
    def meshes(self) -> list[HexMesh]:
        """All component meshes, background first."""
        return [self.background, *self.blades]

    @property
    def total_nodes(self) -> int:
        """Total mesh nodes over all components (Table 1 'Mesh Nodes')."""
        return sum(m.n_nodes for m in self.meshes)

    def advance_rotor(self, dt: float) -> None:
        """Rotate every blade mesh by its rotation rate over ``dt``."""
        for mesh, rot in zip(self.blades, self.rotations):
            rot.apply(mesh, dt)


def _blade_spec(refine: int) -> BladeSpec:
    return BladeSpec(
        span=0.85 * ROTOR_RADIUS,
        n_around=26 * refine,
        n_radial=10 * refine,
        n_span=15 * refine,
        first_cell_frac=2e-3 / refine,
        outer_radius=36.0,
    )


def _make_turbine_blades(
    hubs: list[tuple[float, float, float]],
    spec: BladeSpec,
) -> tuple[list[HexMesh], list[RigidRotation]]:
    """Per hub (turbine ``t<i>``), three blades at 120-degree phase,
    rotating about +x through the hub.

    The blade topology is built once and copied to every blade; each
    blade's metrics are computed once, on its phased coordinates.  So every
    blade is byte-equal to a :func:`make_blade_mesh` phased by
    ``rotate_by``.
    """
    blades: list[HexMesh] = []
    rotations: list[RigidRotation] = []
    # Rotor spins about the inflow (x) axis at a notional 12.1 rpm (NREL
    # 5-MW rated rotor speed).
    omega = 12.1 * 2.0 * np.pi / 60.0
    block = blade_block(spec)
    for t, hub in enumerate(hubs):
        root = (hub[0], hub[1], hub[2] + 0.05 * ROTOR_RADIUS)
        coords = blade_lattice(spec, root).reshape(-1, 3)
        for k in range(3):
            # Phase the blade to its azimuthal slot.
            phase = np.deg2rad(120.0 * k)
            rot = RigidRotation(
                axis=(1.0, 0.0, 0.0), center=hub, omega=omega, angle=phase
            )
            blades.append(
                HexMesh(
                    f"t{t}_blade{k}",
                    rot.rotated(coords, phase),
                    *copy.deepcopy(block),
                )
            )
            rotations.append(rot)
    return blades, rotations


def _make_background(
    name: str,
    hubs: list[tuple[float, float, float]],
    shape: tuple[int, int, int],
) -> HexMesh:
    """Background block sized to contain all rotors plus inflow/wake room."""
    R = ROTOR_RADIUS
    xs = [h[0] for h in hubs]
    extent = (
        (min(xs) - 3.0 * R, max(xs) + 8.0 * R),
        (-3.0 * R, 3.0 * R),
        (-3.0 * R, 3.0 * R),
    )
    center = hubs[0] if len(hubs) == 1 else tuple(np.mean(hubs, axis=0))
    return make_background_mesh(
        name, extent, shape, cluster_center=center, cluster=14.0
    )


#: Name -> builder registry populated by :func:`register_workload`;
#: read it through :func:`list_workloads` / :func:`make_workload`.
_WORKLOAD_REGISTRY: dict[str, Callable[..., TurbineMeshSystem]] = {}


def register_workload(
    name: str, description: str = ""
) -> Callable[[Callable[..., TurbineMeshSystem]], Callable[..., TurbineMeshSystem]]:
    """Register a workload builder under ``name``.

    Every CLI subcommand that takes ``--workload`` validates against this
    registry, and ``--list`` prints it.  Builders must return a
    :class:`TurbineMeshSystem`; the description defaults to the first
    line of the builder's docstring.

    Raises:
        ValueError: on a duplicate name.
    """

    def decorate(
        builder: Callable[..., TurbineMeshSystem]
    ) -> Callable[..., TurbineMeshSystem]:
        if name in _WORKLOAD_REGISTRY:
            raise ValueError(f"workload {name!r} is already registered")
        doc_line = (builder.__doc__ or "").strip().splitlines()
        builder.workload_name = name
        builder.workload_description = description or (
            doc_line[0] if doc_line else ""
        )
        _WORKLOAD_REGISTRY[name] = builder
        return builder

    return decorate


def list_workloads() -> list[tuple[str, str]]:
    """Sorted ``(name, description)`` rows of every registered workload."""
    return [
        (name, getattr(builder, "workload_description", ""))
        for name, builder in sorted(_WORKLOAD_REGISTRY.items())
    ]


@register_workload("turbine_low")
def make_turbine_low(refine: int = 1) -> TurbineMeshSystem:
    """Scaled low-resolution single-turbine system (paper: 23,022,027 nodes).

    Args:
        refine: per-direction refinement multiplier; ``refine=3`` yields the
            scaled analogue of the paper's refined mesh (Table 1, column 3).
    """
    hub = (0.0, 0.0, 0.0)
    blades, rotations = _make_turbine_blades([hub], _blade_spec(refine))
    bg = _make_background(
        "background", [hub], (28 * refine, 20 * refine, 20 * refine)
    )
    name = "turbine_low" if refine == 1 else f"turbine_refined_x{refine}"
    return TurbineMeshSystem(
        name=name, background=bg, blades=blades, rotations=rotations
    )


@register_workload("turbine_refined")
def make_turbine_refined(refine: int = 3) -> TurbineMeshSystem:
    """Scaled refined single-turbine system (paper: 634,469,604 nodes).

    The paper's refined mesh is ~3x the low-resolution mesh in each
    direction; ``refine`` keeps that knob adjustable so benches can trade
    fidelity for runtime.
    """
    sys_ = make_turbine_low(refine=refine)
    sys_.name = "turbine_refined"
    return sys_


@register_workload("turbine_tiny")
def make_turbine_tiny() -> TurbineMeshSystem:
    """A minimal single-turbine system for tests and the quickstart.

    Same construction rules as :func:`make_turbine_low` at roughly 1/8 the
    node count, so full simulation steps run in seconds.
    """
    hub = (0.0, 0.0, 0.0)
    spec = BladeSpec(
        span=0.85 * ROTOR_RADIUS,
        n_around=14,
        n_radial=6,
        n_span=8,
        first_cell_frac=4e-3,
        outer_radius=36.0,
    )
    blades, rotations = _make_turbine_blades([hub], spec)
    bg = _make_background("background", [hub], (16, 12, 12))
    return TurbineMeshSystem(
        name="turbine_tiny", background=bg, blades=blades, rotations=rotations
    )


@register_workload("background_only")
def make_background_only() -> TurbineMeshSystem:
    """A background-only 'empty tunnel' system (no blades).

    Uniform inflow through it is an exact steady solution of the
    discretization, which makes it the free-stream-preservation check.
    """
    bg = _make_background("background", [(0.0, 0.0, 0.0)], (14, 10, 10))
    return TurbineMeshSystem(
        name="background_only", background=bg, blades=[], rotations=[]
    )


@register_workload("turbine_dual")
def make_turbine_dual() -> TurbineMeshSystem:
    """Scaled dual-turbine system (paper: 44,233,109 nodes).

    Two turbines in sequence along the inflow direction, sharing one
    elongated background block, as in the paper's two-turbine case.
    """
    R = ROTOR_RADIUS
    hubs = [(0.0, 0.0, 0.0), (7.0 * R, 0.0, 0.0)]
    blades, rotations = _make_turbine_blades(hubs, _blade_spec(1))
    bg = _make_background("background", hubs, (44, 22, 22))
    return TurbineMeshSystem(
        name="turbine_dual",
        background=bg,
        blades=blades,
        rotations=rotations,
    )


#: Paper mesh-node counts for Table 1 side-by-side reporting.
PAPER_TABLE1 = {
    "turbine_low": 23_022_027,
    "turbine_dual": 44_233_109,
    "turbine_refined": 634_469_604,
}


def make_workload(name: str, **kwargs) -> TurbineMeshSystem:
    """Build one of the named Table 1 workloads."""
    try:
        builder = _WORKLOAD_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(_WORKLOAD_REGISTRY)}"
        ) from None
    return builder(**kwargs)
