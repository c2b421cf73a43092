"""A minimal humanoid skeleton with forward kinematics."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sensing.pose import IDENTITY_QUAT, quat_multiply, quat_rotate

#: (joint name, parent name or None, rest offset from parent in metres).
HUMANOID_JOINTS: List[Tuple[str, Optional[str], Tuple[float, float, float]]] = [
    ("hips", None, (0.0, 0.0, 0.95)),
    ("spine", "hips", (0.0, 0.0, 0.20)),
    ("chest", "spine", (0.0, 0.0, 0.20)),
    ("neck", "chest", (0.0, 0.0, 0.15)),
    ("head", "neck", (0.0, 0.0, 0.12)),
    ("l_shoulder", "chest", (-0.18, 0.0, 0.10)),
    ("l_elbow", "l_shoulder", (-0.28, 0.0, 0.0)),
    ("l_wrist", "l_elbow", (-0.26, 0.0, 0.0)),
    ("r_shoulder", "chest", (0.18, 0.0, 0.10)),
    ("r_elbow", "r_shoulder", (0.28, 0.0, 0.0)),
    ("r_wrist", "r_elbow", (0.26, 0.0, 0.0)),
    ("l_hip", "hips", (-0.10, 0.0, -0.05)),
    ("l_knee", "l_hip", (0.0, 0.0, -0.42)),
    ("l_ankle", "l_knee", (0.0, 0.0, -0.42)),
    ("r_hip", "hips", (0.10, 0.0, -0.05)),
    ("r_knee", "r_hip", (0.0, 0.0, -0.42)),
    ("r_ankle", "r_knee", (0.0, 0.0, -0.42)),
]

N_JOINTS = len(HUMANOID_JOINTS)


class Skeleton:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """Joint hierarchy with rest offsets and local rotations.

    ``world_positions(root_position, root_orientation, rotations)`` runs
    forward kinematics: each joint's world transform is its parent's
    transform composed with the rest offset rotated by the accumulated
    rotation, the standard rigid-chain recursion.
    """

    def __init__(self):
        self.names = [name for name, _parent, _off in HUMANOID_JOINTS]
        self.index: Dict[str, int] = {name: i for i, name in enumerate(self.names)}
        self.parents = [
            -1 if parent is None else self.index[parent]
            for _name, parent, _off in HUMANOID_JOINTS
        ]
        self.offsets = np.array([offset for _n, _p, offset in HUMANOID_JOINTS])

    @property
    def n_joints(self) -> int:
        return len(self.names)

    def identity_rotations(self) -> np.ndarray:
        """(J, 4) array of identity quaternions."""
        rotations = np.tile(IDENTITY_QUAT, (self.n_joints, 1))
        return rotations

    def world_positions(
        self,
        root_position: np.ndarray,
        root_orientation: np.ndarray,
        rotations: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """(J, 3) world positions of every joint."""
        if rotations is None:
            rotations = self.identity_rotations()
        rotations = np.asarray(rotations, dtype=float)
        if rotations.shape != (self.n_joints, 4):
            raise ValueError(
                f"rotations must be ({self.n_joints}, 4), got {rotations.shape}"
            )
        world_pos = np.zeros((self.n_joints, 3))
        world_rot = np.zeros((self.n_joints, 4))
        for j in range(self.n_joints):
            parent = self.parents[j]
            if parent < 0:
                parent_pos = np.asarray(root_position, dtype=float)
                parent_rot = np.asarray(root_orientation, dtype=float)
            else:
                parent_pos = world_pos[parent]
                parent_rot = world_rot[parent]
            world_pos[j] = parent_pos + quat_rotate(parent_rot, self.offsets[j])
            world_rot[j] = quat_multiply(parent_rot, rotations[j])
        return world_pos

    def joint_position(self, name: str, world_positions: np.ndarray) -> np.ndarray:
        return world_positions[self.index[name]]
