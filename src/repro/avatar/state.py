"""The replicated avatar state and its wire-size model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.sensing.expression import N_CHANNELS
from repro.sensing.pose import Pose
from repro.sensing.quantize import QuantizationConfig


@dataclass
class AvatarState:
    """Everything a remote site needs to draw one participant.

    ``joint_rotations`` is optional: low-fidelity avatars (or low LOD
    levels) replicate only the root pose and synthesize body posture
    locally.
    """

    participant_id: str
    time: float
    pose: Pose
    joint_rotations: Optional[np.ndarray] = None
    expression: Optional[np.ndarray] = None
    seq: int = 0
    #: Session epoch of the publisher.  A client that crashes and rejoins
    #: with a reset ``seq`` counter bumps its epoch; staleness checks
    #: compare ``(epoch, seq)`` lexicographically, so the fresh stream is
    #: never mistaken for duplicates of the pre-crash one.  Rides in the
    #: high bits of the wire header's seq word (no extra bytes).
    epoch: int = 0
    meta: dict = field(default_factory=dict)

    def wire_bytes(self, config: QuantizationConfig = QuantizationConfig()) -> int:
        """Encoded size of this update.

        Header (id + seq + timestamp) + quantized root pose + smallest-three
        encoded joint quaternions + 8-bit expression channels.
        """
        size = 16  # participant id hash (8) + seq (4) + time delta (4)
        size += config.pose_bytes
        if self.joint_rotations is not None:
            per_joint_bits = 2 + 3 * config.quat_bits
            size += (len(self.joint_rotations) * per_joint_bits + 7) // 8
        if self.expression is not None:
            size += N_CHANNELS
        return size

    def copy(self) -> "AvatarState":
        # Bypasses dataclass __init__: the snapshot fan-out copies every
        # sent state, so this sits on the data-plane hot path.
        new = AvatarState.__new__(AvatarState)
        new.participant_id = self.participant_id
        new.time = self.time
        new.pose = self.pose.copy()
        new.joint_rotations = (
            None if self.joint_rotations is None else self.joint_rotations.copy()
        )
        new.expression = None if self.expression is None else self.expression.copy()
        new.seq = self.seq
        new.epoch = self.epoch
        new.meta = dict(self.meta)
        return new
