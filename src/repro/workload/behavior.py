"""Markov behavioral dynamics of class participants.

States follow the remote-learning literature the paper surveys: attention
decays into distraction (Chen et al., CHI'21), interaction opportunities
pull participants back.  The transition matrix is modulated by the
modality's *engagement factor* — the blended Metaverse classroom's higher
presence makes distraction less absorbing, which is exactly the effect the
modality-comparison experiment (F1) measures.
"""

from __future__ import annotations

import enum
from typing import Dict

import numpy as np


class BehaviorState(enum.Enum):
    """A participant's momentary engagement state."""

    ATTENTIVE = "attentive"
    DISTRACTED = "distracted"
    INTERACTING = "interacting"
    AWAY = "away"


_STATES = list(BehaviorState)


def transition_matrix(engagement: float, interactivity: float) -> np.ndarray:
    """Per-step (10 s) transition matrix given modality properties.

    ``engagement`` in [0, 1] scales how sticky attention is; higher
    ``interactivity`` makes INTERACTING reachable and rewarding.
    """
    if not 0.0 <= engagement <= 1.0:
        raise ValueError(f"engagement must be in [0,1], got {engagement}")
    if not 0.0 <= interactivity <= 1.0:
        raise ValueError(f"interactivity must be in [0,1], got {interactivity}")
    drift = 0.20 * (1.0 - engagement)           # attention decay
    recover = 0.10 + 0.35 * engagement           # pull back from distraction
    interact = 0.05 + 0.20 * interactivity       # chance to start interacting
    leave = 0.02 * (1.0 - engagement)            # drop off the class entirely
    matrix = np.array([
        # ATTENTIVE        DISTRACTED            INTERACTING  AWAY
        [1 - drift - interact - leave, drift, interact, leave],                 # from ATTENTIVE
        [recover, 1 - recover - leave, 0.0, leave],                             # from DISTRACTED
        [0.70, 0.05, 0.25, 0.0],                                                # from INTERACTING
        [0.05 + 0.10 * engagement, 0.0, 0.0, 0.95 - 0.10 * engagement],         # from AWAY
    ])
    if (matrix < -1e-12).any():
        raise ValueError("transition probabilities went negative; check factors")
    matrix = np.clip(matrix, 0.0, 1.0)
    matrix /= matrix.sum(axis=1, keepdims=True)
    return matrix


class BehaviorModel:
    """One participant's behavioral trajectory."""

    STEP_SECONDS = 10.0

    def __init__(
        self,
        rng: np.random.Generator,
        engagement: float = 0.5,
        interactivity: float = 0.5,
    ):
        self.rng = rng
        self.matrix = transition_matrix(engagement, interactivity)
        self.state = BehaviorState.ATTENTIVE
        self._time_in: Dict[BehaviorState, float] = {s: 0.0 for s in _STATES}
        self.interactions_started = 0

    def step(self, dt: float = STEP_SECONDS) -> BehaviorState:
        """Advance one step of ``dt`` seconds and return the new state."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        self._time_in[self.state] += dt
        row = self.matrix[_STATES.index(self.state)]
        next_index = int(self.rng.choice(len(_STATES), p=row))
        next_state = _STATES[next_index]
        if (
            next_state == BehaviorState.INTERACTING
            and self.state != BehaviorState.INTERACTING
        ):
            self.interactions_started += 1
        self.state = next_state
        return self.state

    def run(self, duration: float, dt: float = STEP_SECONDS) -> None:
        steps = int(duration / dt)
        for _ in range(steps):
            self.step(dt)

    def fraction_in(self, state: BehaviorState) -> float:
        total = sum(self._time_in.values())
        if total == 0:
            return 0.0
        return self._time_in[state] / total

    @property
    def attention_fraction(self) -> float:
        """Fraction of time attentive or actively interacting."""
        return self.fraction_in(BehaviorState.ATTENTIVE) + self.fraction_in(
            BehaviorState.INTERACTING
        )
