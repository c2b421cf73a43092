"""A registry of counters, gauges, trackers, histograms, and families."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.metrics.histogram import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    label_string,
)
from repro.metrics.latency import LatencyTracker

_UNSET = object()


class MetricsRegistry:
    """Named counters/gauges/trackers/histograms shared across a run.

    Scalars (counters, gauges) and sample accumulators (trackers keep
    every sample; histograms keep fixed buckets) live side by side.
    Labeled *families* fan one name out over a fixed label schema — see
    :class:`~repro.metrics.histogram.MetricFamily`.
    """

    def __init__(self):
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._trackers: Dict[str, LatencyTracker] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._families: Dict[str, MetricFamily] = {}
        self._help: Dict[str, str] = {}

    # -- help text --------------------------------------------------------

    def describe(self, name: str, text: str) -> None:
        """Attach ``# HELP`` text to metric ``name`` (any kind).

        Describing a registered family also stamps the family's own
        ``help_text``, so exporters reading either surface agree.
        """
        self._help[name] = text
        family = self._families.get(name)
        if family is not None:
            family.help_text = text

    def help_text(self, name: str) -> str:
        family = self._families.get(name)
        if family is not None and family.help_text:
            return family.help_text
        return self._help.get(name, "")

    @property
    def help_texts(self) -> Dict[str, str]:
        merged = dict(self._help)
        for name, family in self._families.items():
            if family.help_text:
                merged[name] = family.help_text
        return merged

    # -- counters ---------------------------------------------------------

    def incr(self, name: str, amount: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    # -- gauges ----------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    def gauge(self, name: str, default: float = _UNSET) -> float:
        """The gauge's value; ``default`` (when given) replaces the
        ``KeyError`` a never-set gauge otherwise raises."""
        if name not in self._gauges:
            if default is _UNSET:
                raise KeyError(f"gauge never set: {name}")
            return default
        return self._gauges[name]

    # -- trackers -----------------------------------------------------------

    def tracker(self, name: str) -> LatencyTracker:
        tracker = self._trackers.get(name)
        if tracker is None:
            tracker = LatencyTracker(name)
            self._trackers[name] = tracker
        return tracker

    # -- histograms ----------------------------------------------------------

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        """Get-or-create a fixed-bucket histogram (buckets fixed on first use)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(name, buckets)
            self._histograms[name] = histogram
        return histogram

    # -- labeled families -----------------------------------------------------

    def _family(self, name: str, label_names: Sequence[str], factory,
                kind: str, help_text: str = "") -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, label_names, factory, kind=kind,
                                  help_text=help_text or
                                  self._help.get(name, ""))
            self._families[name] = family
        elif family.label_names != tuple(label_names):
            raise ValueError(
                f"family {name!r} already registered with labels "
                f"{family.label_names}, got {tuple(label_names)}")
        if help_text:
            self.describe(name, help_text)
        return family

    def counter_family(self, name: str, label_names: Sequence[str],
                       help_text: str = "") -> MetricFamily:
        return self._family(name, label_names, Counter, "counter",
                            help_text=help_text)

    def gauge_family(self, name: str, label_names: Sequence[str],
                     help_text: str = "") -> MetricFamily:
        return self._family(name, label_names, Gauge, "gauge",
                            help_text=help_text)

    @property
    def families(self) -> Dict[str, MetricFamily]:
        return dict(self._families)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    @property
    def counters(self) -> Dict[str, float]:
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, float]:
        return dict(self._gauges)

    @property
    def trackers(self) -> Dict[str, LatencyTracker]:
        return dict(self._trackers)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of every metric the registry holds.

        Every metric kind carries its own namespace prefix (``counter:``,
        ``gauge:``, ``tracker:``, ``hist:``) so a counter literally named
        ``gauge:x`` can never collide with gauge ``x`` in the export.
        Trackers with samples export count, mean, and p95; trackers
        *without* samples still export ``tracker:<name>:count = 0`` so a
        dashboard can tell "never sampled" from "metric missing".
        Histograms export their p50/p95/p99/max roll-up; family children
        append a ``{label="value"}`` suffix to the family name.
        """
        merged: Dict[str, float] = {}
        for name, value in self._counters.items():
            merged[f"counter:{name}"] = value
        for name, value in self._gauges.items():
            merged[f"gauge:{name}"] = value
        for name, tracker in self._trackers.items():
            if len(tracker) == 0:
                merged[f"tracker:{name}:count"] = 0.0
                continue
            summary = tracker.summary()
            merged[f"tracker:{name}:count"] = float(summary.count)
            merged[f"tracker:{name}:mean"] = summary.mean
            merged[f"tracker:{name}:p95"] = summary.p95
        for name, histogram in self._histograms.items():
            for key, value in histogram.summary().items():
                merged[f"hist:{name}:{key}"] = value
        for name, family in self._families.items():
            for label_values, child in family.items():
                labels = label_string(family.label_names, label_values)
                merged[f"{family.kind}:{name}{labels}"] = child.value
        return merged
