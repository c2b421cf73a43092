"""Measurement utilities: summary statistics, latency tracking, QoE.

The experiment harness reports distributions, not single numbers; these
helpers keep that cheap and uniform across subsystems.
"""

from repro.metrics.collector import MetricsRegistry
from repro.metrics.histogram import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    label_string,
)
from repro.metrics.latency import LatencyTracker, StageBudget
from repro.metrics.qoe import InteractionQoeModel, VideoQoeModel
from repro.metrics.stats import Summary, summarize

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "InteractionQoeModel",
    "LatencyTracker",
    "MetricFamily",
    "MetricsRegistry",
    "StageBudget",
    "Summary",
    "VideoQoeModel",
    "label_string",
    "summarize",
]
