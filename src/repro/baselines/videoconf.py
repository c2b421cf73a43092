"""A Zoom-like video conferencing platform (the incumbent baseline)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.media.codec import VideoCodecModel


@dataclass(frozen=True)
class VideoConferencePlatform:
    """An SFU (selective forwarding unit) star topology.

    Every participant uplinks one encoded stream to the SFU; downlink
    carries up to ``max_tiles`` other participants' streams, each scaled
    down so the total fits ``downlink_budget_bps`` — which is why the
    gallery gets blockier as the class grows.
    """

    uplink_bps: float = 1.5e6
    downlink_budget_bps: float = 8e6
    max_tiles: int = 25
    codec: VideoCodecModel = VideoCodecModel()

    def __post_init__(self):
        if min(self.uplink_bps, self.downlink_budget_bps) <= 0:
            raise ValueError("bitrates must be positive")
        if self.max_tiles < 1:
            raise ValueError("max tiles must be >= 1")

    def visible_tiles(self, n_participants: int) -> int:
        """Tiles shown to one participant (everyone else, capped)."""
        if n_participants < 1:
            raise ValueError("need at least one participant")
        return min(n_participants - 1, self.max_tiles)

    def per_tile_bps(self, n_participants: int) -> float:
        """Bitrate each visible tile receives."""
        tiles = self.visible_tiles(n_participants)
        if tiles == 0:
            return 0.0
        return min(self.uplink_bps, self.downlink_budget_bps / tiles)

    def tile_quality(self, n_participants: int) -> float:
        """Delivered per-tile video quality index (codec R-D curve)."""
        bps = self.per_tile_bps(n_participants)
        return self.codec.quality(bps)
