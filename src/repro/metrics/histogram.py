"""Fixed-bucket histograms and labeled metric families.

:class:`Histogram` is the Prometheus-style cumulative-bucket shape: a
fixed, sorted bucket boundary list chosen at construction, O(1) memory
regardless of sample count, and quantiles estimated by linear
interpolation inside the winning bucket.  That trades exactness (the
list-backed :class:`~repro.metrics.latency.LatencyTracker` keeps every
sample) for bounded memory on million-sample runs and a lossless
text-exposition export.

:class:`MetricFamily` adds the labels dimension: one name, a fixed label
schema, and one child metric per observed label-value combination —
``registry.counter_family("drops", ("link",))``
``.labels(link="wan").inc()``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): 1 ms resolution under the paper's
#: 100 ms interaction budget, coarser above, +Inf implicit.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.002, 0.005, 0.010, 0.020, 0.030, 0.050, 0.075,
    0.100, 0.150, 0.200, 0.300, 0.500, 1.000, 2.000, 5.000,
)


class Histogram:
    """Cumulative fixed-bucket histogram with interpolated quantiles."""

    def __init__(self, name: str = "histogram",
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("at least one bucket boundary is required")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket boundaries must strictly increase: {bounds}")
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError("bucket boundaries must be finite (+Inf is implicit)")
        self.name = name
        self.bounds = bounds
        # counts[i] = samples <= bounds[i]; counts[-1] = overflow (+Inf).
        self._counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one sample (>= 0; +inf lands in the overflow bucket)."""
        value = float(value)
        if not value >= 0:  # also rejects NaN, which compares false
            raise ValueError(f"sample must be >= 0, got {value}")
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self._counts[i] += 1
                return
        self._counts[-1] += 1

    def __len__(self) -> int:
        return self.count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count<=bound)`` pairs, +Inf last."""
        cumulative, out = 0, []
        for bound, count in zip(self.bounds, self._counts):
            cumulative += count
            out.append((bound, cumulative))
        out.append((float("inf"), self.count))
        return out

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0-100) by bucket interpolation.

        A rank that falls in the overflow bucket (above the largest
        finite bound) returns the largest observed sample, not the bound
        Prometheus ``histogram_quantile`` would clamp to: buckets
        ``(1, 2)`` with samples ``0.5, 5, 7`` give p99 = 7.0.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0,100], got {q}")
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * self.count
        cumulative = 0
        lower = 0.0
        for bound, count in zip(self.bounds, self._counts):
            if cumulative + count >= rank and count > 0:
                fraction = (rank - cumulative) / count
                return lower + (bound - lower) * min(1.0, max(0.0, fraction))
            cumulative += count
            lower = bound
        return min(self.max, float("inf")) if self._counts[-1] else self.bounds[-1]

    def summary(self) -> Dict[str, float]:
        """The p50/p95/p99/max/count/sum/mean roll-up dashboards want."""
        return {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "max": self.max if self.count else 0.0,
        }


class Counter:
    """A float counter as an object, for use as a family child."""

    def __init__(self, name: str = "counter"):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """A settable float, for use as a family child."""

    def __init__(self, name: str = "gauge"):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class MetricFamily:
    """One metric name fanned out over a fixed label schema.

    ``factory`` builds one child per distinct label-value tuple; children
    are created lazily on first :meth:`labels` access and iterated in
    insertion order by :meth:`items`.  ``help_text`` feeds the ``# HELP``
    line in the text exposition.
    """

    def __init__(self, name: str, label_names: Sequence[str],
                 factory: Callable[[str], object], kind: str = "untyped",
                 help_text: str = ""):
        if not label_names:
            raise ValueError("a family needs at least one label name")
        self.name = name
        self.label_names = tuple(label_names)
        self.kind = kind
        self.help_text = help_text
        self._factory = factory
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **labels: str) -> object:
        """The child metric for this label-value combination."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"family {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}")
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._factory(self.name)
            self._children[key] = child
        return child

    def items(self) -> Iterator[Tuple[Tuple[str, ...], object]]:
        """``(label_values, child)`` pairs in first-seen order."""
        return iter(self._children.items())

    def __len__(self) -> int:
        return len(self._children)


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double quote, and line feed are the three characters the
    format requires escaping inside quoted label values; everything else
    passes through verbatim.
    """
    return (str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def label_string(label_names: Sequence[str], label_values: Sequence[str]) -> str:
    """Render ``{k="v",...}`` in the Prometheus exposition style."""
    inner = ",".join(
        f'{name}="{escape_label_value(value)}"'
        for name, value in zip(label_names, label_values)
    )
    return "{" + inner + "}"
