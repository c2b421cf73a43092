"""Sensory-conflict accumulation dynamics.

Oman's sensory conflict theory: sickness grows with the mismatch between
visual and vestibular signals and decays during rest.  The conflict signal
here is assembled from the technical factors the paper lists — latency,
FOV, frame rate, navigation speed — and scaled by the user's individual
susceptibility.  The accumulated state maps onto SSQ symptom ratings so
experiments report standard scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.sickness.ssq import SSQ_SYMPTOMS, SsqResponse, score_ssq


@dataclass(frozen=True)
class ExposureConfig:
    """Technical settings of one VR exposure."""

    motion_to_photon_ms: float = 30.0
    fov_deg: float = 90.0
    frame_rate_hz: float = 72.0
    navigation_speed_m_s: float = 1.5   # virtual locomotion speed
    uses_smooth_locomotion: bool = True

    def __post_init__(self):
        if self.motion_to_photon_ms < 0:
            raise ValueError("latency must be >= 0")
        if not 10.0 <= self.fov_deg <= 360.0:
            raise ValueError("FOV out of range")
        if self.frame_rate_hz <= 0:
            raise ValueError("frame rate must be positive")
        if self.navigation_speed_m_s < 0:
            raise ValueError("speed must be >= 0")

    def conflict_rate(self) -> float:
        """Instantaneous conflict signal per second of exposure, >= 0.

        Shapes per the cybersickness literature: latency above ~20 ms adds
        conflict roughly linearly; wider FOV increases vection (more
        peripheral optic flow); low frame rate adds judder conflict below
        ~60 Hz; smooth locomotion speed drives the visual-vestibular
        mismatch itself (teleportation — not smooth — removes that term).
        """
        latency_term = max(0.0, (self.motion_to_photon_ms - 20.0)) * 0.004
        judder_term = max(0.0, (60.0 - self.frame_rate_hz)) * 0.003
        vection_term = 0.0
        if self.uses_smooth_locomotion:
            # Optic-flow conflict scales with speed and super-linearly
            # with FOV (peripheral flow dominates vection).
            vection_term = (
                0.06 * self.navigation_speed_m_s * (self.fov_deg / 110.0) ** 1.5
            )
        baseline_term = 0.01  # residual discomfort of any HMD exposure
        return latency_term + judder_term + vection_term + baseline_term


class SensoryConflictModel:
    """Integrates conflict into a sickness state and emits SSQ scores."""

    def __init__(
        self,
        susceptibility: float = 1.0,
        recovery_rate: float = 0.002,
    ):
        if susceptibility <= 0:
            raise ValueError("susceptibility must be positive")
        if recovery_rate < 0:
            raise ValueError("recovery rate must be >= 0")
        self.susceptibility = float(susceptibility)
        self.recovery_rate = float(recovery_rate)
        self.state = 0.0  # accumulated sickness, arbitrary units
        self.exposure_s = 0.0

    def expose(self, config: ExposureConfig, duration_s: float) -> float:
        """Accumulate ``duration_s`` seconds of exposure; returns state."""
        if duration_s < 0:
            raise ValueError("duration must be >= 0")
        rate = config.conflict_rate() * self.susceptibility
        # Linear growth with exponential recovery towards equilibrium.
        for _ in range(int(duration_s)):
            self.state += rate - self.recovery_rate * self.state
        self.state = max(0.0, self.state)
        self.exposure_s += duration_s
        return self.state

    def symptom_ratings(self) -> Dict[str, float]:
        """Map the scalar state onto 0-3 symptom ratings.

        Ratings saturate smoothly (``3 * (1 - exp(-gain * state))``) so two
        heavy exposures remain distinguishable instead of both pinning at
        the scale ceiling.  Disorientation-cluster symptoms grow fastest
        under vection conflict, nausea next, oculomotor slowest — the
        ordering VR studies report (D > N > O for HMD exposure).
        """
        gains = {"d": 0.003, "n": 0.002, "o": 0.0015}
        ratings: Dict[str, float] = {}
        for name, (in_n, in_o, in_d) in SSQ_SYMPTOMS.items():
            if in_d:
                gain = gains["d"]
            elif in_n:
                gain = gains["n"]
            else:
                gain = gains["o"]
            ratings[name] = float(3.0 * (1.0 - np.exp(-gain * self.state)))
        return ratings

    def ssq(self) -> SsqResponse:
        return score_ssq(self.symptom_ratings())
