"""Pose-stream quantization: what a pose update costs on the wire.

Positions are quantized on a millimetre-scale grid over the classroom
bounds; orientations use the standard *smallest-three* quaternion encoding.
The quantizer reports both the wire size and the reconstructed pose, so
experiments can trade bandwidth against replication error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sensing.pose import Pose, quat_normalize


@dataclass(frozen=True)
class QuantizationConfig:
    """Grid and bit-depth settings for pose encoding."""

    position_bits: int = 16
    quat_bits: int = 10
    room_extent_m: float = 20.0   # positions live in [-extent, extent]

    def __post_init__(self):
        if not 4 <= self.position_bits <= 32:
            raise ValueError(f"position_bits out of range: {self.position_bits}")
        if not 2 <= self.quat_bits <= 16:
            raise ValueError(f"quat_bits out of range: {self.quat_bits}")
        if self.room_extent_m <= 0:
            raise ValueError("room extent must be positive")

    @property
    def position_resolution_m(self) -> float:  # replint: ignore[ARCH003] -- grid step the quantizer error test bounds by
        """Grid step of the position encoding."""
        return 2.0 * self.room_extent_m / (2 ** self.position_bits - 1)

    @property
    def pose_bits(self) -> int:
        """Bits per encoded pose: 3 position axes + smallest-three quat."""
        # 2 bits select the dropped (largest) quaternion component.
        return 3 * self.position_bits + 2 + 3 * self.quat_bits

    @property
    def pose_bytes(self) -> int:
        return (self.pose_bits + 7) // 8


class PoseQuantizer:
    """Encode/decode poses on the configured grid."""

    def __init__(self, config: QuantizationConfig = QuantizationConfig()):
        self.config = config

    def _quantize_scalar(self, value: float, lo: float, hi: float, bits: int) -> float:
        levels = 2 ** bits - 1
        clipped = min(max(value, lo), hi)
        index = round((clipped - lo) / (hi - lo) * levels)
        return lo + index / levels * (hi - lo)

    def roundtrip(self, pose: Pose) -> Pose:
        """The pose as the receiver will reconstruct it."""
        extent = self.config.room_extent_m
        position = np.array([
            self._quantize_scalar(v, -extent, extent, self.config.position_bits)
            for v in pose.position
        ])
        q = quat_normalize(pose.orientation)
        largest = int(np.argmax(np.abs(q)))
        if q[largest] < 0:
            q = -q  # canonical sign so the dropped component is positive
        bound = 1.0 / np.sqrt(2.0)
        small = [
            self._quantize_scalar(q[i], -bound, bound, self.config.quat_bits)
            for i in range(4)
            if i != largest
        ]
        rebuilt = np.zeros(4)
        slot = 0
        for i in range(4):
            if i == largest:
                continue
            rebuilt[i] = small[slot]
            slot += 1
        residual = 1.0 - float(np.sum(rebuilt ** 2))
        rebuilt[largest] = np.sqrt(max(0.0, residual))
        return Pose(position, quat_normalize(rebuilt))

    def error(self, pose: Pose) -> tuple:
        """(position error m, orientation error rad) of one round trip."""
        rebuilt = self.roundtrip(pose)
        return pose.distance_to(rebuilt), pose.angle_to(rebuilt)

    @property
    def update_bytes(self) -> int:
        """Wire bytes of one pose update."""
        return self.config.pose_bytes
