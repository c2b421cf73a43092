"""Viewport-adaptive 360-degree video for immersive scenes.

Section 3.1 ("Learner Collaborations"): "Additionally, incorporating a
360-degree video scene."  Full-sphere video at display quality is
enormous; production systems stream *tiles* — viewport tiles in high
quality, the rest at a low-quality base layer — and prefetch where the
head is predicted to turn.  The model quantifies the two costs that
matter: bandwidth (vs. naive full-sphere) and the probability a fast head
turn outruns the prefetch and lands on blurry tiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Set, Tuple


@dataclass(frozen=True)
class TiledSphere:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """An equirectangular tiling of the sphere."""

    tiles_yaw: int = 12    # 30-degree columns
    tiles_pitch: int = 6   # 30-degree rows

    def __post_init__(self):
        if self.tiles_yaw < 2 or self.tiles_pitch < 2:
            raise ValueError("need at least a 2x2 tiling")

    @property
    def n_tiles(self) -> int:
        return self.tiles_yaw * self.tiles_pitch

    def tile_of(self, yaw_rad: float, pitch_rad: float) -> Tuple[int, int]:
        """(yaw index, pitch index) of the tile containing a direction."""
        yaw = math.atan2(math.sin(yaw_rad), math.cos(yaw_rad))  # wrap
        pitch = max(-math.pi / 2, min(math.pi / 2, pitch_rad))
        yaw_index = int((yaw + math.pi) / (2 * math.pi) * self.tiles_yaw)
        pitch_index = int((pitch + math.pi / 2) / math.pi * self.tiles_pitch)
        return (
            min(yaw_index, self.tiles_yaw - 1),
            min(pitch_index, self.tiles_pitch - 1),
        )

    def viewport_tiles(
        self, yaw_rad: float, pitch_rad: float,
        fov_h_rad: float, fov_v_rad: float,
        margin_tiles: int = 1,
    ) -> Set[Tuple[int, int]]:
        """Tiles covering the viewport plus a prefetch margin ring."""
        if fov_h_rad <= 0 or fov_v_rad <= 0:
            raise ValueError("FOV must be positive")
        if margin_tiles < 0:
            raise ValueError("margin must be >= 0")
        tile_w = 2 * math.pi / self.tiles_yaw
        tile_h = math.pi / self.tiles_pitch
        half_w = int(math.ceil(fov_h_rad / 2 / tile_w)) + margin_tiles
        half_h = int(math.ceil(fov_v_rad / 2 / tile_h)) + margin_tiles
        center_yaw, center_pitch = self.tile_of(yaw_rad, pitch_rad)
        tiles = set()
        for dy in range(-half_w, half_w + 1):
            for dp in range(-half_h, half_h + 1):
                yaw_index = (center_yaw + dy) % self.tiles_yaw
                pitch_index = center_pitch + dp
                if 0 <= pitch_index < self.tiles_pitch:
                    tiles.add((yaw_index, pitch_index))
        return tiles


@dataclass(frozen=True)
class Viewport360Config:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """Streaming parameters."""

    full_sphere_bps: float = 50e6     # what naive full-quality costs
    base_layer_fraction: float = 0.1  # low-quality everywhere underlay
    prefetch_latency_s: float = 0.5   # segment fetch + buffer depth

    def __post_init__(self):
        if self.full_sphere_bps <= 0:
            raise ValueError("bitrate must be positive")
        if not 0.0 <= self.base_layer_fraction < 1.0:
            raise ValueError("base fraction must be in [0,1)")
        if self.prefetch_latency_s < 0:
            raise ValueError("prefetch latency must be >= 0")


def streaming_bitrate(  # replint: ignore[ARCH003] -- test-only, queued for deletion
    sphere: TiledSphere,
    viewport: Set[Tuple[int, int]],
    config: Viewport360Config = Viewport360Config(),
) -> float:
    """Bits per second of viewport-adaptive streaming."""
    if not viewport:
        raise ValueError("empty viewport")
    hi_fraction = len(viewport) / sphere.n_tiles
    per_tile = config.full_sphere_bps / sphere.n_tiles
    hi = len(viewport) * per_tile
    base = config.full_sphere_bps * config.base_layer_fraction * (1 - hi_fraction)
    return hi + base


def bandwidth_saving(  # replint: ignore[ARCH003] -- test-only, queued for deletion
    sphere: TiledSphere,
    viewport: Set[Tuple[int, int]],
    config: Viewport360Config = Viewport360Config(),
) -> float:
    """Fraction of the naive full-sphere bitrate saved."""
    return 1.0 - streaming_bitrate(sphere, viewport, config) / config.full_sphere_bps


def blur_probability(  # replint: ignore[ARCH003] -- test-only, queued for deletion
    head_turn_rate_rad_s: float,
    margin_tiles: int,
    sphere: TiledSphere,
    config: Viewport360Config = Viewport360Config(),
) -> float:
    """Probability a head turn lands outside the prefetched ring.

    The margin buys ``margin_tiles`` tile-widths of angular headroom; the
    head covers ``rate * prefetch_latency`` radians before fresh tiles
    arrive.  The overshoot fraction maps to a probability through a
    saturating ramp (a 2x overshoot is a near-certain blur glimpse).
    """
    if head_turn_rate_rad_s < 0:
        raise ValueError("turn rate must be >= 0")
    if margin_tiles < 0:
        raise ValueError("margin must be >= 0")
    headroom = margin_tiles * (2 * math.pi / sphere.tiles_yaw)
    travel = head_turn_rate_rad_s * config.prefetch_latency_s
    overshoot = travel - headroom
    if overshoot <= 0:
        return 0.0
    return min(1.0, overshoot / (2 * math.pi / sphere.tiles_yaw) / 2.0)
