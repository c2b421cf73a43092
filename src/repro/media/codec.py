"""A rate-distortion video codec model.

No pixels are encoded; the model captures the properties that matter to
the transport experiments: quality grows with bitrate along a saturating
rate-distortion curve, keyframes are several times larger than P-frames,
and losing a P-frame corrupts the prediction chain until the next
keyframe.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator


class FrameType(enum.Enum):
    """How a video frame is coded."""

    KEY = "key"       # intra-coded, self-contained
    DELTA = "delta"   # predicted from the previous frame


@dataclass(frozen=True)
class Frame:
    """One encoded video frame."""

    index: int
    frame_type: FrameType
    size_bytes: int
    capture_time: float

    @property
    def is_key(self) -> bool:
        return self.frame_type is FrameType.KEY


@dataclass(frozen=True)
class VideoCodecModel:
    """Codec parameters and the quality curve.

    ``quality(bitrate)`` follows ``1 - exp(-bitrate / r0)``: with the
    default ``r0`` of 1.5 Mbps, 1 Mbps gives ~0.49, 3 Mbps ~0.86,
    6 Mbps ~0.98 — the familiar knee of conferencing codecs at 720p.
    """

    fps: float = 30.0
    gop: int = 30                # frames per keyframe
    keyframe_ratio: float = 6.0  # keyframe bytes / delta-frame bytes
    r0_bps: float = 1.5e6

    def __post_init__(self):
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.gop < 1:
            raise ValueError("gop must be >= 1")
        if self.keyframe_ratio < 1.0:
            raise ValueError("keyframe ratio must be >= 1")
        if self.r0_bps <= 0:
            raise ValueError("r0 must be positive")

    def quality(self, bitrate_bps: float) -> float:
        """Delivered quality index in [0, 1] at a given encode bitrate."""
        if bitrate_bps < 0:
            raise ValueError("bitrate must be >= 0")
        return 1.0 - math.exp(-bitrate_bps / self.r0_bps)

    def frame_sizes(self, bitrate_bps: float) -> tuple:
        """(key bytes, delta bytes) so the GOP averages to the bitrate."""
        bytes_per_frame = bitrate_bps / 8.0 / self.fps
        # One key + (gop-1) deltas must sum to gop * bytes_per_frame.
        delta = bytes_per_frame * self.gop / (self.keyframe_ratio + self.gop - 1)
        key = delta * self.keyframe_ratio
        return max(1, int(round(key))), max(1, int(round(delta)))

    def frames(self, bitrate_bps: float, start_time: float = 0.0) -> Iterator[Frame]:
        """An endless frame sequence at the given bitrate."""
        key_size, delta_size = self.frame_sizes(bitrate_bps)
        index = 0
        while True:
            is_key = index % self.gop == 0
            yield Frame(
                index=index,
                frame_type=FrameType.KEY if is_key else FrameType.DELTA,
                size_bytes=key_size if is_key else delta_size,
                capture_time=start_time + index / self.fps,
            )
            index += 1


class DecodeState:
    """Tracks prediction-chain corruption at the receiver.

    Feed frames in display order with an ``arrived`` flag; a missing
    delta frame corrupts everything until the next *arrived* keyframe.
    """

    def __init__(self):
        self._corrupted = True  # nothing decodable before the first key
        self.displayable = 0
        self.corrupted = 0
        self.total = 0

    def feed(self, frame: Frame, arrived: bool) -> bool:
        """Returns True if this frame is displayable."""
        self.total += 1
        if frame.is_key:
            self._corrupted = not arrived
        elif not arrived:
            self._corrupted = True
        if self._corrupted:
            self.corrupted += 1
            return False
        self.displayable += 1
        return True

    @property
    def displayable_fraction(self) -> float:
        if self.total == 0:
            raise RuntimeError("no frames fed")
        return self.displayable / self.total
