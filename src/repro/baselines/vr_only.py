"""A pure-VR remote platform (Mozilla-Hubs-like): the VR-only baseline."""

from __future__ import annotations

from dataclasses import dataclass

from repro.sickness.conflict import ExposureConfig, SensoryConflictModel


@dataclass(frozen=True)
class VrRemotePlatform:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """Everyone is remote; there is no physical classroom at all.

    Compared with the blended classroom, VR-only keeps immersion and
    remote access but loses physical co-presence entirely — and every
    single participant (not just remote ones) pays the cybersickness and
    fatigue costs of sustained HMD wear, which caps practical session
    length.
    """

    exposure: ExposureConfig = ExposureConfig(
        motion_to_photon_ms=35.0,
        fov_deg=100.0,
        frame_rate_hz=72.0,
        navigation_speed_m_s=2.0,
    )
    #: Sessions longer than this are impractical in full VR (fatigue).
    comfortable_session_minutes: float = 45.0

    def sickness_after(self, minutes: float, susceptibility: float = 1.0):
        """SSQ after ``minutes`` of continuous attendance."""
        if minutes < 0:
            raise ValueError("minutes must be >= 0")
        model = SensoryConflictModel(susceptibility=susceptibility)
        model.expose(self.exposure, minutes * 60.0)
        return model.ssq()

    def usable_fraction_of_session(self, session_minutes: float) -> float:
        """Fraction of a session attendees can comfortably stay immersed."""
        if session_minutes <= 0:
            raise ValueError("session length must be positive")
        return min(1.0, self.comfortable_session_minutes / session_minutes)
