"""An AR-augmented physical classroom: the AR-only baseline."""

from __future__ import annotations

from dataclasses import dataclass

from repro.render.display import DisplayModel


@dataclass(frozen=True)
class ArOverlayClassroom:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """Co-located students with AR headsets and shared overlays.

    The paper's verdict: "current VR/AR education allows 3D visualization
    but fails to provide remote access."  AR also brings its surveyed
    costs: extra training time for novices, added cognitive load from
    overlay clutter, and trigger-recognition failures of location-based
    anchors.
    """

    display: DisplayModel = DisplayModel(
        name="ar_headset", fov_horizontal_deg=52.0, fov_vertical_deg=40.0,
        refresh_hz=60.0,
    )
    #: Extra training time factor for AR-novice learners (Gavish et al.).
    novice_training_overhead: float = 1.45
    #: Probability a location-based trigger fires when it should.
    trigger_recognition_rate: float = 0.85
    #: Added cognitive load from overlay clutter, [0, 1].
    overlay_cognitive_load: float = 0.25

    def __post_init__(self):
        if self.novice_training_overhead < 1.0:
            raise ValueError("training overhead must be >= 1")
        if not 0.0 < self.trigger_recognition_rate <= 1.0:
            raise ValueError("recognition rate must be in (0,1]")
        if not 0.0 <= self.overlay_cognitive_load <= 1.0:
            raise ValueError("cognitive load must be in [0,1]")

    def task_time_factor(self, is_novice: bool) -> float:
        """Time multiplier on hands-on tasks."""
        return self.novice_training_overhead if is_novice else 1.0

    def activity_success_rate(self, triggers_needed: int) -> float:
        """Probability a location-based activity with N triggers works."""
        if triggers_needed < 0:
            raise ValueError("trigger count must be >= 0")
        return self.trigger_recognition_rate ** triggers_needed

    @property
    def supports_remote_learners(self) -> bool:
        return False
