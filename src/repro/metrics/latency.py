"""Latency sample trackers and pipeline stage budgets."""

from __future__ import annotations

from typing import Dict, List

from repro.metrics.stats import Summary, summarize


class LatencyTracker:
    """Accumulates latency samples (seconds) and summarizes on demand."""

    def __init__(self, name: str = "latency"):
        self.name = name
        self.samples: List[float] = []

    def record(self, seconds: float) -> None:
        if not seconds >= 0:  # also rejects NaN, which compares false
            raise ValueError(
                f"latency sample must be >= 0, got {seconds}")
        self.samples.append(float(seconds))

    def __len__(self) -> int:
        return len(self.samples)

    def summary(self) -> Summary:
        return summarize(self.samples)

    def summary_ms(self) -> Summary:
        """Summary with samples scaled to milliseconds."""
        return summarize([s * 1e3 for s in self.samples])

    def fraction_above(self, threshold_s: float) -> float:
        """Fraction of samples exceeding ``threshold_s``."""
        if not self.samples:
            raise ValueError("no samples recorded")
        return sum(1 for s in self.samples if s > threshold_s) / len(self.samples)


class StageBudget:
    """Per-stage latency decomposition of a pipeline.

    Used by the Figure-3 experiment to show where the motion-to-photon
    budget goes (sensing, uplink, fusion, inter-site, placement, render,
    display), and by :class:`~repro.obs.report.MotionToPhotonReport` to
    aggregate per-trace stage sums from spans.
    """

    def __init__(self):
        self._stages: Dict[str, LatencyTracker] = {}

    def record(self, stage: str, seconds: float) -> None:
        tracker = self._stages.get(stage)
        if tracker is None:
            tracker = LatencyTracker(stage)
            self._stages[stage] = tracker
        tracker.record(seconds)

    @property
    def stages(self) -> List[str]:
        return list(self._stages)

    def tracker(self, stage: str) -> LatencyTracker:
        return self._stages[stage]

    def mean_breakdown_ms(self) -> Dict[str, float]:
        """Mean per-stage latency in milliseconds, in insertion order."""
        return {
            name: tracker.summary().mean * 1e3
            for name, tracker in self._stages.items()
            if tracker.samples
        }
