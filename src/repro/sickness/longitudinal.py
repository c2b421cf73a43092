"""Longitudinal cybersickness across a semester of classes.

Susceptibility is not static: repeated exposure habituates users (the
strongest practical mitigation), while a badly tuned classroom that makes
students sick early causes dropouts before habituation can help.  The
model tracks a cohort across sessions and reports the SSQ trajectory and
attrition — the operational question an institution deploying the
Metaverse classroom actually faces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List

import numpy as np

from repro.sickness.conflict import ExposureConfig, SensoryConflictModel
from repro.sickness.susceptibility import (
    HABITUATION_FLOOR,
    HABITUATION_PER_SESSION,
    UserTraits,
    susceptibility_of,
    susceptibility_system,
)


@dataclass
class SemesterOutcome:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """Per-session cohort statistics."""

    mean_ssq_by_session: List[float] = field(default_factory=list)
    dropouts_by_session: List[int] = field(default_factory=list)
    remaining: int = 0

    @property
    def total_dropouts(self) -> int:
        return sum(self.dropouts_by_session)


class SemesterSimulation:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """A cohort attending repeated VR class sessions.

    A student drops the VR modality (switching to the 2D fallback) after a
    session whose SSQ total exceeds ``dropout_threshold``; everyone else
    habituates by one session's worth before the next class.
    """

    def __init__(
        self,
        cohort: List[UserTraits],
        exposure: ExposureConfig,
        session_minutes: float = 50.0,
        dropout_threshold: float = 60.0,
        rng: np.random.Generator = None,
    ):
        if not cohort:
            raise ValueError("empty cohort")
        if session_minutes <= 0:
            raise ValueError("session length must be positive")
        if dropout_threshold <= 0:
            raise ValueError("dropout threshold must be positive")
        self.cohort = list(cohort)
        self.exposure = exposure
        self.session_minutes = float(session_minutes)
        self.dropout_threshold = float(dropout_threshold)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._system = susceptibility_system()

    def _session_ssq(self, traits: UserTraits) -> float:
        susceptibility = susceptibility_of(traits, self._system)
        # Day-to-day variability: sleep, hydration, motion content.
        susceptibility *= float(self.rng.uniform(0.85, 1.15))
        model = SensoryConflictModel(susceptibility=susceptibility)
        model.expose(self.exposure, self.session_minutes * 60.0)
        return model.ssq().total

    def run(self, n_sessions: int) -> SemesterOutcome:
        if n_sessions < 1:
            raise ValueError("need at least one session")
        outcome = SemesterOutcome()
        active = list(self.cohort)
        for _session in range(n_sessions):
            if not active:
                outcome.mean_ssq_by_session.append(0.0)
                outcome.dropouts_by_session.append(0)
                continue
            ssqs = [self._session_ssq(traits) for traits in active]
            outcome.mean_ssq_by_session.append(float(np.mean(ssqs)))
            survivors, dropouts = [], 0
            for traits, ssq in zip(active, ssqs):
                if ssq > self.dropout_threshold:
                    dropouts += 1
                    continue
                survivors.append(replace(
                    traits, prior_vr_sessions=traits.prior_vr_sessions + 1
                ))
            outcome.dropouts_by_session.append(dropouts)
            active = survivors
        outcome.remaining = len(active)
        return outcome


def habituation_sessions_to_floor(  # replint: ignore[ARCH003] -- test-only, queued for deletion
) -> int:
    """Sessions until the habituation multiplier bottoms out."""
    return int(np.ceil((1.0 - HABITUATION_FLOOR) / HABITUATION_PER_SESSION))
