"""Multi-modal feedback cues and their latency tolerances.

"Multi-modal feedback cues (e.g., haptics) become necessary to maintain
the granularity of user communication ... haptic feedback is essential to
delivering high levels of presence and realism, but current networking
constraints create delayed feedback and damage user experiences."
Tolerances: haptics degrade beyond ~25 ms (tactile JND literature), audio
beyond ~80 ms, visual beyond ~100 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence


@dataclass(frozen=True)
class FeedbackCue:
    """One feedback channel."""

    name: str
    tolerance_ms: float       # latency where degradation begins
    collapse_ms: float        # latency where the cue stops helping
    presence_weight: float    # contribution to presence when timely

    def __post_init__(self):
        if self.tolerance_ms < 0 or self.collapse_ms <= self.tolerance_ms:
            raise ValueError("need 0 <= tolerance < collapse")
        if not 0.0 <= self.presence_weight <= 1.0:
            raise ValueError("weight must be in [0,1]")

    def effectiveness(self, latency_ms: float) -> float:
        """How much of the cue's value survives at ``latency_ms``: [0,1]."""
        if latency_ms < 0:
            raise ValueError("latency must be >= 0")
        if latency_ms <= self.tolerance_ms:
            return 1.0
        if latency_ms >= self.collapse_ms:
            return 0.0
        span = self.collapse_ms - self.tolerance_ms
        return 1.0 - (latency_ms - self.tolerance_ms) / span


#: The standard cue set with literature-shaped tolerances.
STANDARD_CUES = (
    FeedbackCue("visual", tolerance_ms=50.0, collapse_ms=300.0, presence_weight=0.45),
    FeedbackCue("audio", tolerance_ms=80.0, collapse_ms=400.0, presence_weight=0.30),
    FeedbackCue("haptic", tolerance_ms=25.0, collapse_ms=150.0, presence_weight=0.25),
)


class MultiModalFeedback:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """Aggregate feedback quality of a cue set under per-cue latencies."""

    def __init__(self, cues: Sequence[FeedbackCue] = STANDARD_CUES):
        if not cues:
            raise ValueError("need at least one cue")
        total = sum(cue.presence_weight for cue in cues)
        if total <= 0:
            raise ValueError("weights must sum to > 0")
        self.cues = list(cues)
        self._total_weight = total

    def quality(self, latencies_ms: Dict[str, float]) -> float:
        """Weighted feedback quality in [0, 1].

        Cues absent from ``latencies_ms`` are treated as *not provided*
        (contributing zero), so adding haptics to a visual-only system
        raises the score — the paper's multi-modality argument.
        """
        score = 0.0
        for cue in self.cues:
            if cue.name not in latencies_ms:
                continue
            score += cue.presence_weight * cue.effectiveness(latencies_ms[cue.name])
        return score / self._total_weight
