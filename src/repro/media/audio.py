"""Audio transport and lip-sync accounting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.simkit.engine import Simulator


@dataclass(frozen=True)
class AudioConfig:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """Opus-like audio parameters."""

    bitrate_bps: float = 24_000.0
    frame_ms: float = 20.0

    @property
    def frame_bytes(self) -> int:
        return max(1, int(self.bitrate_bps / 8.0 * self.frame_ms / 1e3))


class AudioStream:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """Fixed-rate audio frames over a jittery path.

    Audio is far lighter than video but *more* latency-sensitive for
    conversation; the stream records per-frame one-way delays so lip-sync
    offset against the video path can be measured.
    """

    def __init__(
        self,
        sim: Simulator,
        config: AudioConfig = AudioConfig(),
        one_way_delay: float = 0.04,
        jitter_std: float = 0.005,
        loss_rate: float = 0.01,
        name: str = "audio",
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0,1)")
        self.sim = sim
        self.config = config
        self.one_way_delay = float(one_way_delay)
        self.jitter_std = float(jitter_std)
        self.loss_rate = float(loss_rate)
        self._rng = sim.rng.stream(f"audio:{name}")
        self.delays: List[float] = []
        self.lost = 0

    def transmit(self, duration: float) -> None:
        """Send ``duration`` seconds of audio frames, recording delays."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        n_frames = int(duration * 1e3 / self.config.frame_ms)
        for _ in range(n_frames):
            if self._rng.random() < self.loss_rate:
                self.lost += 1
                continue
            delay = self.one_way_delay + abs(float(self._rng.normal(0.0, self.jitter_std)))
            self.delays.append(delay)

    @property
    def mean_delay(self) -> float:
        if not self.delays:
            raise RuntimeError("no frames transmitted")
        return float(np.mean(self.delays))

    @property
    def loss_fraction(self) -> float:
        total = len(self.delays) + self.lost
        return self.lost / total if total else 0.0


def lip_sync_offset(  # replint: ignore[ARCH003] -- test-only, queued for deletion
        audio_delay: float, video_delay: float) -> float:
    """Signed AV offset in seconds (positive = audio leads video).

    Broadcast practice (ITU BT.1359): detectability thresholds are about
    +45 ms (audio early) and -125 ms (audio late); the HCI experiments use
    this to flag out-of-sync sessions.
    """
    return video_delay - audio_delay


def lip_sync_acceptable(  # replint: ignore[ARCH003] -- test-only, queued for deletion
        audio_delay: float, video_delay: float) -> bool:
    """Whether the AV offset is within the ITU detectability window.

    Audio may lead video by at most 45 ms and lag it by at most 125 ms.
    """
    offset = lip_sync_offset(audio_delay, video_delay)
    return -0.125 <= offset <= 0.045
