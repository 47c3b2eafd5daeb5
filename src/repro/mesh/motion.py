"""Rigid mesh motion (rotor rotation).

The paper's blade meshes move with the turbine through rotor rotation (§2);
overset connectivity is recomputed as they move.  Blades here are rigid
(paper §5: "the model described in [5], but with rigid blades"), so motion
is a rigid rotation about the rotor axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.hexmesh import HexMesh


def rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a (non-zero) axis."""
    axis = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(axis)
    if n == 0:
        raise ValueError("rotation axis must be non-zero")
    k = axis / n
    K = np.array(
        [
            [0.0, -k[2], k[1]],
            [k[2], 0.0, -k[0]],
            [-k[1], k[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


@dataclass
class RigidRotation:
    """Constant-rate rigid rotation of a mesh about a fixed axis.

    Attributes:
        axis: rotation axis direction.
        center: point on the axis.
        omega: angular rate [rad/s].
    """

    axis: tuple[float, float, float]
    center: tuple[float, float, float]
    omega: float
    angle: float = 0.0

    def rotated(self, coords: np.ndarray, dtheta: float) -> np.ndarray:
        """``coords`` rotated by ``dtheta`` radians about the axis."""
        R = rotation_matrix(np.asarray(self.axis), dtheta)
        c = np.asarray(self.center)
        return (coords - c) @ R.T + c

    def rotate_by(self, mesh: HexMesh, dtheta: float) -> None:
        """Rotate ``mesh`` in place by ``dtheta`` radians."""
        mesh.coords[:] = self.rotated(mesh.coords, dtheta)
        self.angle += dtheta
        mesh.update_metrics()

    def apply(self, mesh: HexMesh, dt: float) -> None:
        """Advance ``mesh`` by ``omega * dt`` radians."""
        self.rotate_by(mesh, self.omega * dt)

    def grid_velocity(self, coords: np.ndarray) -> np.ndarray:
        """Instantaneous grid velocity ``omega x r`` at the given points."""
        k = np.asarray(self.axis, dtype=np.float64)
        k = k / np.linalg.norm(k)
        r = coords - np.asarray(self.center)
        return self.omega * np.cross(np.broadcast_to(k, r.shape), r)
