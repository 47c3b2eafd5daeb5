"""Unstructured-mesh substrate (STK analogue) and turbine mesh generators."""

from repro.mesh.generators import (
    BladeSpec,
    geometric_stretching,
    graded_axis,
    make_background_mesh,
    make_blade_mesh,
)
from repro.mesh.hexmesh import HexMesh, MeshStats
from repro.mesh.motion import RigidRotation, rotation_matrix
from repro.mesh.topology import (
    BlockTopology,
    build_block_topology,
    node_adjacency,
)
from repro.mesh.turbine import (
    PAPER_TABLE1,
    ROTOR_RADIUS,
    TurbineMeshSystem,
    list_workloads,
    make_background_only,
    make_turbine_dual,
    make_turbine_low,
    make_turbine_tiny,
    make_turbine_refined,
    make_workload,
    register_workload,
)

__all__ = [
    "BladeSpec",
    "BlockTopology",
    "HexMesh",
    "MeshStats",
    "PAPER_TABLE1",
    "ROTOR_RADIUS",
    "RigidRotation",
    "TurbineMeshSystem",
    "build_block_topology",
    "geometric_stretching",
    "graded_axis",
    "list_workloads",
    "make_background_mesh",
    "make_blade_mesh",
    "make_background_only",
    "make_turbine_dual",
    "make_turbine_low",
    "make_turbine_refined",
    "make_turbine_tiny",
    "make_workload",
    "node_adjacency",
    "register_workload",
    "rotation_matrix",
]
