"""Text/command input throughput per modality.

The paper: "the user inputs on mobile MR and VR headsets are far from
satisfaction, resulting in low throughput rates in general" and "current
input methods of headsets are primarily speech recognition and simple hand
gestures".  Rates below follow the text-entry literature (physical
keyboards ~52 WPM; speech ~30 effective WPM after corrections; VR
controller pointing ~12 WPM; mid-air/gesture ~7 WPM; gaze-dwell ~9 WPM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np


@dataclass(frozen=True)
class InputModality:
    """Throughput and error profile of one input method."""

    name: str
    words_per_minute: float
    wpm_std: float
    error_rate: float           # fraction of words needing re-entry
    #: Seconds of fixed overhead to initiate one input act (raise hands,
    #: push-to-talk, summon keyboard...).
    activation_s: float

    def __post_init__(self):
        if self.words_per_minute <= 0:
            raise ValueError("WPM must be positive")
        if not 0.0 <= self.error_rate < 1.0:
            raise ValueError("error rate must be in [0,1)")
        if self.activation_s < 0:
            raise ValueError("activation must be >= 0")

    @property
    def effective_wpm(self) -> float:  # replint: ignore[ARCH003] -- analytic rate the typing Monte Carlo is checked against
        """Throughput after re-entering erroneous words."""
        return self.words_per_minute * (1.0 - self.error_rate)


#: The modality set the C1b experiment compares.
INPUT_MODALITIES: Dict[str, InputModality] = {
    "physical_keyboard": InputModality("physical_keyboard", 52.0, 12.0, 0.02, 0.5),
    "speech": InputModality("speech", 34.0, 10.0, 0.12, 1.0),
    "vr_controller": InputModality("vr_controller", 12.0, 3.0, 0.05, 1.5),
    "hand_gesture": InputModality("hand_gesture", 7.0, 2.0, 0.10, 1.0),
    "gaze_dwell": InputModality("gaze_dwell", 9.0, 2.0, 0.06, 0.8),
}


class TypingSession:
    """Monte-carlo text entry with per-word speed jitter and retries.

    ``obs`` (an optional :class:`~repro.obs.span.SpanTracer`) records one
    ``input`` span per entry act.  The span covers the tracer-clock time
    the call took, so it nests in the caller's phase on that clock; the
    modelled human entry time rides along as its ``modelled_s``
    attribute.
    """

    def __init__(self, modality: InputModality, rng: np.random.Generator,
                 obs=None):
        self.modality = modality
        self.rng = rng
        self.obs = obs
        self.words_entered = 0
        self.retries = 0
        self.elapsed = 0.0

    def enter_words(self, n_words: int, trace_parent=None) -> float:
        """Simulate entering ``n_words``; returns elapsed seconds."""
        if n_words < 0:
            raise ValueError("word count must be >= 0")
        retries_before = self.retries
        traced = self.obs is not None and self.obs.enabled
        start = self.obs.now() if traced else 0.0
        elapsed = self.modality.activation_s
        for _ in range(n_words):
            wpm = max(
                1.0,
                self.rng.normal(self.modality.words_per_minute, self.modality.wpm_std),
            )
            elapsed += 60.0 / wpm
            while self.rng.random() < self.modality.error_rate:
                self.retries += 1
                elapsed += 60.0 / wpm
            self.words_entered += 1
        self.elapsed += elapsed
        if traced:
            self.obs.record_span(
                "input", "input", start, self.obs.now(), parent=trace_parent,
                modality=self.modality.name, words=n_words,
                retries=self.retries - retries_before, modelled_s=elapsed)
        return elapsed

    @property
    def achieved_wpm(self) -> float:
        if self.elapsed <= 0:
            raise RuntimeError("no words entered yet")
        return self.words_entered / self.elapsed * 60.0
