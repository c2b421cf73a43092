"""Adaptive bitrate control for the classroom's video streams.

The paper wants "high video quality ... with few artifacts" under varying
networks; a rate controller is how real systems deliver that.  This is a
hybrid throughput/loss controller in the WebRTC tradition: additive
increase while the path is clean, multiplicative decrease on loss or
rising queueing delay, clamped to the codec's useful range.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional


@dataclass(frozen=True)
class AbrConfig:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """Controller tuning.

    ``baseline_window`` is how many recent interval delays the queueing
    baseline is min'd over.  A *lifetime* running min (the old behaviour)
    pins the controller after a route change: once the path's base delay
    rises permanently, every report reads as queueing and the bitrate
    ratchets to ``min_bitrate_bps`` forever.  A windowed min forgets the
    dead route after ``baseline_window`` intervals and recovery resumes.
    """

    min_bitrate_bps: float = 300e3
    max_bitrate_bps: float = 8e6
    increase_bps_per_step: float = 250e3
    decrease_factor: float = 0.7
    loss_threshold: float = 0.02
    delay_threshold_s: float = 0.05   # queueing delay above baseline
    baseline_window: int = 40         # reports the baseline min spans

    def __post_init__(self):
        if not 0 < self.min_bitrate_bps < self.max_bitrate_bps:
            raise ValueError("need 0 < min < max bitrate")
        if not 0.0 < self.decrease_factor < 1.0:
            raise ValueError("decrease factor must be in (0,1)")
        if self.increase_bps_per_step <= 0:
            raise ValueError("increase step must be positive")
        if self.baseline_window < 1:
            raise ValueError("baseline window must be >= 1")


class AbrController:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """One report per control interval drives one bitrate decision."""

    def __init__(self, config: AbrConfig = AbrConfig(),
                 initial_bitrate_bps: float = 1e6):
        if not config.min_bitrate_bps <= initial_bitrate_bps <= config.max_bitrate_bps:
            raise ValueError("initial bitrate outside the configured range")
        self.config = config
        self.bitrate_bps = float(initial_bitrate_bps)
        self._recent_delays: Deque[float] = deque(
            maxlen=config.baseline_window)
        #: External ceiling (adaptation controller knob); None = uncapped.
        self._cap_bps: Optional[float] = None
        self.history: List[float] = [self.bitrate_bps]
        self.decreases = 0

    @property
    def baseline_delay(self) -> Optional[float]:
        """Min one-way delay over the last ``baseline_window`` reports."""
        if not self._recent_delays:
            return None
        return min(self._recent_delays)

    @property
    def cap_bps(self) -> Optional[float]:
        return self._cap_bps

    def set_cap(self, cap_bps: Optional[float]) -> float:
        """Clamp the bitrate ceiling from outside (and apply immediately).

        Lowering it makes video yield bandwidth to the sync stream;
        ``None`` removes the cap.  The cap
        never pushes below ``min_bitrate_bps``.  Returns the bitrate.
        """
        if cap_bps is not None:
            if cap_bps <= 0:
                raise ValueError("cap must be positive")
            cap_bps = max(float(cap_bps), self.config.min_bitrate_bps)
        self._cap_bps = cap_bps
        if cap_bps is not None and self.bitrate_bps > cap_bps:
            self.bitrate_bps = cap_bps
            self.history.append(self.bitrate_bps)
        return self.bitrate_bps

    def report(self, loss_fraction: float, one_way_delay_s: float,
               throughput_bps: Optional[float] = None) -> float:
        """Feed one interval's receiver report; returns the new bitrate.

        ``throughput_bps`` (when known) caps increases: there is no point
        encoding above what the path recently carried.
        """
        if not 0.0 <= loss_fraction <= 1.0:
            raise ValueError("loss fraction must be in [0,1]")
        if one_way_delay_s < 0:
            raise ValueError("delay must be >= 0")
        self._recent_delays.append(one_way_delay_s)
        queueing = one_way_delay_s - min(self._recent_delays)
        congested = (
            loss_fraction > self.config.loss_threshold
            or queueing > self.config.delay_threshold_s
        )
        if congested:
            self.bitrate_bps *= self.config.decrease_factor
            self.decreases += 1
        else:
            self.bitrate_bps += self.config.increase_bps_per_step
            if throughput_bps is not None:
                self.bitrate_bps = min(self.bitrate_bps, 1.2 * throughput_bps)
        ceiling = self.config.max_bitrate_bps
        if self._cap_bps is not None:
            ceiling = min(ceiling, self._cap_bps)
        self.bitrate_bps = min(
            ceiling,
            max(self.config.min_bitrate_bps, self.bitrate_bps),
        )
        self.history.append(self.bitrate_bps)
        return self.bitrate_bps

    def converged_bitrate(self, last_n: int = 10) -> float:
        """Mean of the last ``last_n`` decisions."""
        if last_n < 1:
            raise ValueError("last_n must be >= 1")
        window = self.history[-last_n:]
        return sum(window) / len(window)
