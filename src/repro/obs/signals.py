"""Windowed control-plane signals over the metrics layer.

Autoscaling (and any other closed-loop controller) needs *recent*
behavior, not lifetime aggregates: a shard that was overloaded ten
simulated minutes ago but is healthy now must read as healthy.  The
metrics layer, by design, only accumulates —
:class:`~repro.metrics.latency.LatencyTracker` keeps every sample and
counters only ever grow.  This module adds the windowing on top, as
cheap cursors that never copy or mutate the underlying metric:

* :class:`SampleWindow` — a cursor over a growing sample list; each
  :meth:`~SampleWindow.poll` returns the samples recorded since the
  previous poll.
* :class:`CounterRate` — finite-difference rate of a monotonically
  increasing counter between polls.

Both are deliberately service-agnostic (callables in, floats out): the
*binding* of these primitives to a concrete service's per-shard metrics
lives with the controller (see :mod:`repro.cloud.autoscaler`), keeping
the obs layer free of sync-layer imports.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence

__all__ = [
    "CounterRate",
    "SampleWindow",
    "percentile",
]


def percentile(values: Sequence[float], q: float, default: float = 0.0) -> float:
    """The ``q``-th percentile (0..100) by nearest-rank, ``default`` when
    empty.

    Always returns an observed sample, unlike
    :func:`repro.metrics.stats.summarize`, which interpolates linearly:
    for ``[1, 2, 3, 4]`` this gives p50 = 2.0 where ``summarize`` gives
    2.5.  Control decisions (autoscaler, SLOs, scoreboard) read this
    definition, so it is part of every replay fingerprint."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    if not values:
        return default
    ordered = sorted(values)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[rank]


class SampleWindow:
    """Cursor over a growing sample sequence (e.g. a tracker's samples).

    ``source`` is a zero-argument callable returning the *current* full
    sample list — typically ``lambda: tracker.samples``, re-evaluated at
    every poll so tracker replacement (a restarted server re-registering
    its metrics) is picked up.  If the list ever shrinks, the cursor
    resets to zero and the whole list counts as new — the semantics of a
    reset metric.
    """

    def __init__(self, source: Callable[[], Sequence[float]]):
        self._source = source
        self._cursor = 0

    def poll(self) -> List[float]:
        """Samples recorded since the previous poll (may be empty)."""
        samples = self._source()
        if len(samples) < self._cursor:
            self._cursor = 0
        fresh = list(samples[self._cursor:])
        self._cursor = len(samples)
        return fresh


class CounterRate:
    """Finite-difference rate of a monotone counter between polls.

    The first poll primes the cursor and reports ``0.0`` (no window
    yet); each later poll reports ``delta / dt`` over the span since the
    previous poll.  A counter that decreased (metric reset) re-primes
    and reports ``0.0`` for that window.
    """

    def __init__(self, source: Callable[[], float]):
        self._source = source
        self._last_value: float | None = None
        self._last_t: float | None = None

    def poll(self, now: float) -> float:
        value = float(self._source())
        last_value, last_t = self._last_value, self._last_t
        self._last_value, self._last_t = value, now
        if last_value is None or last_t is None:
            return 0.0
        dt = now - last_t
        if dt <= 0.0 or value < last_value:
            return 0.0
        return (value - last_value) / dt
