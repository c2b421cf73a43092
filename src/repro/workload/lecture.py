"""Activity scripts: what happens during a class session.

Section 3.1 lists the interaction scenarios the Metaverse classroom should
support — gamified breakouts, learner collaborations, learner-driven
activities.  A script is a timeline of phases; each phase sets the
interaction rate, talk ratio, and motion intensity the workload generators
should produce during it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass(frozen=True)
class ActivityPhase:
    """One contiguous segment of a class session."""

    name: str
    duration_s: float
    #: Interaction events per participant per minute (questions, votes...).
    interaction_rate_per_min: float
    #: Fraction of the phase someone is talking (drives audio/video load).
    talk_ratio: float
    #: 0 = seated still, 1 = everyone walking (drives pose update entropy).
    motion_intensity: float

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValueError("phase duration must be positive")
        if self.interaction_rate_per_min < 0:
            raise ValueError("interaction rate must be >= 0")
        if not 0.0 <= self.talk_ratio <= 1.0:
            raise ValueError("talk ratio must be in [0,1]")
        if not 0.0 <= self.motion_intensity <= 1.0:
            raise ValueError("motion intensity must be in [0,1]")


@dataclass
class ActivityScript:
    """An ordered list of phases forming a session."""

    name: str
    phases: List[ActivityPhase] = field(default_factory=list)

    @property
    def total_duration(self) -> float:
        return sum(phase.duration_s for phase in self.phases)


def lecture_script(duration_s: float = 3600.0) -> ActivityScript:
    """A classic lecture: long talk segments, brief Q&A breaks."""
    talk = duration_s * 0.85 / 3.0
    qa = duration_s * 0.15 / 3.0
    phases = []
    for i in range(3):
        phases.append(ActivityPhase(f"talk-{i+1}", talk, 0.2, 0.9, 0.05))
        phases.append(ActivityPhase(f"qa-{i+1}", qa, 2.0, 0.6, 0.1))
    return ActivityScript("lecture", phases)


def tutorial_script(duration_s: float = 3600.0) -> ActivityScript:
    """Hands-on tutorial: worked examples, then individual exercises."""
    return ActivityScript(
        "tutorial",
        [
            ActivityPhase("walkthrough", duration_s * 0.3, 0.5, 0.8, 0.05),
            ActivityPhase("exercise", duration_s * 0.5, 3.0, 0.2, 0.2),
            ActivityPhase("review", duration_s * 0.2, 1.5, 0.7, 0.05),
        ],
    )


def seminar_script(duration_s: float = 3600.0) -> ActivityScript:
    """Seminar: a talk then a long moderated discussion."""
    return ActivityScript(
        "seminar",
        [
            ActivityPhase("talk", duration_s * 0.5, 0.1, 0.95, 0.02),
            ActivityPhase("discussion", duration_s * 0.5, 4.0, 0.8, 0.1),
        ],
    )


def group_project_script(duration_s: float = 3600.0) -> ActivityScript:
    """Cross-campus group work: high interaction, high motion."""
    return ActivityScript(
        "group_project",
        [
            ActivityPhase("briefing", duration_s * 0.1, 0.3, 0.9, 0.05),
            ActivityPhase("breakout", duration_s * 0.7, 6.0, 0.5, 0.5),
            ActivityPhase("presentations", duration_s * 0.2, 1.0, 0.85, 0.2),
        ],
    )


def gamified_breakout_script(duration_s: float = 1800.0) -> ActivityScript:
    """Section 3.1's gamified 'digital breakout' module."""
    return ActivityScript(
        "gamified_breakout",
        [
            ActivityPhase("rules", duration_s * 0.1, 0.2, 0.9, 0.05),
            ActivityPhase("puzzle-hunt", duration_s * 0.75, 8.0, 0.4, 0.8),
            ActivityPhase("debrief", duration_s * 0.15, 2.0, 0.7, 0.1),
        ],
    )


_SCRIPTS = {
    "lecture": lecture_script,
    "tutorial": tutorial_script,
    "seminar": seminar_script,
    "group_project": group_project_script,
    "gamified_breakout": gamified_breakout_script,
}


def standard_script(kind: str, duration_s: float = 3600.0) -> ActivityScript:
    """Build one of the named scripts by kind."""
    try:
        factory = _SCRIPTS[kind]
    except KeyError:
        raise KeyError(
            f"unknown script kind {kind!r}; choose from {sorted(_SCRIPTS)}"
        ) from None
    return factory(duration_s)
