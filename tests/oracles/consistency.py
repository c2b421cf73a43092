"""Replica-vs-truth divergence sampled through a running simulation."""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.metrics.latency import LatencyTracker
from repro.sensing.pose import Pose
from repro.simkit.engine import Simulator


class ConsistencyProbe:
    """Samples divergence between ground truth and replicated views.

    ``truths`` maps entity id → callable ``t -> Pose`` (what the entity is
    actually doing); ``views`` maps observer id → callable returning the
    observer's current replicated states (id → AvatarState).  Each probe
    tick records, for every (observer, entity) pair the observer can see,
    the position divergence between the replica and the truth *now* —
    i.e. the user-visible consequence of the whole pipeline's latency.
    """

    def __init__(
        self,
        sim: Simulator,
        truths: Dict[str, Callable[[float], Pose]],
        views: Dict[str, Callable[[], Dict[str, "object"]]],
        interval: float = 0.1,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.truths = truths
        self.views = views
        self.interval = interval
        self.divergence = LatencyTracker("divergence_m")  # metres, not time
        self.visibility_samples: List[float] = []

    def probe_once(self) -> None:
        now = self.sim.now
        visible_pairs = 0
        expected_pairs = 0
        for observer_id, view in self.views.items():
            states = view()
            for entity_id, truth in self.truths.items():
                if entity_id == observer_id:
                    continue
                expected_pairs += 1
                state = states.get(entity_id)
                if state is None:
                    continue
                visible_pairs += 1
                self.divergence.record(state.pose.distance_to(truth(now)))
        if expected_pairs:
            self.visibility_samples.append(visible_pairs / expected_pairs)

    def run(self, duration: float, warmup: float = 1.0) -> None:
        """Periodic probing process; skips ``warmup`` seconds of joins."""

        def step():
            self.probe_once()
            return self.interval

        self.sim.call_later(warmup, lambda: self.sim.every(duration, step))

    def mean_visibility(self) -> float:
        """Average fraction of (observer, entity) pairs actually visible."""
        if not self.visibility_samples:
            raise RuntimeError("no probes recorded")
        return float(np.mean(self.visibility_samples))

    def mean_divergence_m(self) -> float:
        return self.divergence.summary().mean
