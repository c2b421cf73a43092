"""Arrival processes for class joins."""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np


class BurstyArrivals:
    """Start-of-class join rush followed by stragglers.

    A fraction ``burst_fraction`` of ``n`` users arrive in the first
    ``burst_window`` seconds (uniformly); the rest trickle in as a Poisson
    tail — the familiar shape of a lecture starting.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        n: int,
        burst_fraction: float = 0.8,
        burst_window: float = 60.0,
        tail_rate_per_s: float = 0.05,
    ):
        if n < 0:
            raise ValueError("n must be >= 0")
        if not 0.0 <= burst_fraction <= 1.0:
            raise ValueError("burst fraction must be in [0,1]")
        if burst_window <= 0 or tail_rate_per_s <= 0:
            raise ValueError("window and tail rate must be positive")
        self.rng = rng
        self.n = int(n)
        self.burst_fraction = float(burst_fraction)
        self.burst_window = float(burst_window)
        self.tail_rate = float(tail_rate_per_s)

    def times(self) -> List[float]:
        """Sorted arrival instants for all ``n`` users.

        The Poisson tail starts at the *last burst arrival*, not at
        ``burst_window``: stragglers trail the crowd that actually showed
        up, so early tail draws can overlap the (still open) burst window.
        With no burst arrivals the tail starts at 0.  Draw order is fixed
        (burst uniforms first, then tail exponentials), so a given seed
        produces the same arrival set regardless of the overlap.
        """
        n_burst = int(round(self.n * self.burst_fraction))
        burst = self.rng.uniform(0.0, self.burst_window, size=n_burst)
        tail = []
        t = float(burst.max()) if n_burst else 0.0
        for _ in range(self.n - n_burst):
            t += float(self.rng.exponential(1.0 / self.tail_rate))
            tail.append(t)
        return sorted(burst.tolist() + tail)


class ClassScheduleForecast:
    """Deterministic join forecast for scheduled class starts.

    Operators *know* the timetable: a class with ``enrolled`` students
    starting at ``start_at`` produces a :class:`BurstyArrivals`-shaped
    join profile — ``burst_fraction`` of the enrollment lands uniformly in
    the first ``burst_window`` seconds, the stragglers trickle in as a
    rate-``tail_rate_per_s`` Poisson tail.  :meth:`expected_joins` is the
    mean of that profile over a window, which is exactly what a capacity
    pre-warmer needs: no sampling, so forecasting never perturbs the
    seeded replay of the run it steers.
    """

    def __init__(
        self,
        starts: Sequence[Tuple[float, int]],
        burst_fraction: float = 0.8,
        burst_window: float = 60.0,
        tail_rate_per_s: float = 0.05,
    ):
        if not 0.0 <= burst_fraction <= 1.0:
            raise ValueError("burst fraction must be in [0,1]")
        if burst_window <= 0 or tail_rate_per_s <= 0:
            raise ValueError("window and tail rate must be positive")
        self.starts: List[Tuple[float, int]] = []
        for start_at, enrolled in starts:
            if enrolled < 0:
                raise ValueError("enrollment must be >= 0")
            self.starts.append((float(start_at), int(enrolled)))
        self.starts.sort()
        self.burst_fraction = float(burst_fraction)
        self.burst_window = float(burst_window)
        self.tail_rate = float(tail_rate_per_s)

    @staticmethod
    def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
        return max(0.0, min(a1, b1) - max(a0, b0))

    def expected_joins(self, t0: float, t1: float) -> float:
        """Expected number of joins in ``[t0, t1)`` across all classes."""
        if t1 <= t0:
            return 0.0
        total = 0.0
        for start_at, enrolled in self.starts:
            n_burst = enrolled * self.burst_fraction
            burst_end = start_at + self.burst_window
            total += n_burst * self._overlap(t0, t1, start_at, burst_end) \
                / self.burst_window
            # The tail is a rate-limited Poisson stream starting at the
            # burst's close, truncated once the stragglers are exhausted.
            n_tail = enrolled - n_burst
            tail_end = burst_end + n_tail / self.tail_rate
            total += self.tail_rate * self._overlap(t0, t1, burst_end,
                                                    tail_end)
        return total


class DiurnalClassLoad:
    """Concurrent-user load over a campus day: diurnal base + class surges.

    The base population (drop-in study rooms, office hours) follows a
    smooth day/night curve bottoming at ``night_floor`` of ``base_users``
    around ``t = 0`` and peaking mid-trace.  Each scheduled class
    ``(start_s, enrolled, duration_s)`` layers a
    :class:`ClassScheduleForecast`-shaped join ramp on top — the
    expectation of a :class:`BurstyArrivals` rush — holds its attendees
    for the class duration, then drains them linearly over
    ``leave_window`` seconds after the end.

    :attr:`forecast` exposes the *same* schedule as the pre-warming
    forecast, so a controller consuming it operates under the
    perfect-timetable assumption the paper's scheduled-classes setting
    justifies.  :meth:`concurrent` is deterministic; :meth:`sample`
    adds multiplicative seeded noise for a non-sterile trace.
    """

    def __init__(
        self,
        base_users: int,
        classes: Sequence[Tuple[float, int, float]],
        *,
        day_s: float = 86400.0,
        night_floor: float = 0.35,
        burst_fraction: float = 0.8,
        burst_window: float = 300.0,
        tail_rate_per_s: float = 50.0,
        leave_window: float = 300.0,
    ):
        if base_users < 0:
            raise ValueError("base_users must be >= 0")
        if day_s <= 0 or leave_window <= 0:
            raise ValueError("day_s and leave_window must be positive")
        if not 0.0 <= night_floor <= 1.0:
            raise ValueError("night_floor must be in [0,1]")
        self.base_users = int(base_users)
        self.classes: List[Tuple[float, int, float]] = []
        for start_s, enrolled, duration_s in classes:
            if enrolled < 0 or duration_s <= 0:
                raise ValueError("need enrolled >= 0 and duration > 0")
            self.classes.append(
                (float(start_s), int(enrolled), float(duration_s)))
        self.classes.sort()
        self.day_s = float(day_s)
        self.night_floor = float(night_floor)
        self.leave_window = float(leave_window)
        self.forecast = ClassScheduleForecast(
            [(start_s, enrolled) for start_s, enrolled, _ in self.classes],
            burst_fraction=burst_fraction, burst_window=burst_window,
            tail_rate_per_s=tail_rate_per_s,
        )
        self._per_class = [
            ClassScheduleForecast(
                [(start_s, enrolled)],
                burst_fraction=burst_fraction, burst_window=burst_window,
                tail_rate_per_s=tail_rate_per_s,
            )
            for start_s, enrolled, _ in self.classes
        ]

    def concurrent(self, t: float) -> float:
        """Expected concurrent users at ``t`` (deterministic)."""
        phase = 2.0 * math.pi * (t % self.day_s) / self.day_s
        base = self.base_users * (
            self.night_floor
            + (1.0 - self.night_floor) * 0.5 * (1.0 - math.cos(phase))
        )
        total = base
        for (start_s, _enrolled, duration_s), forecast in zip(
                self.classes, self._per_class):
            end = start_s + duration_s
            joined = forecast.expected_joins(0.0, min(t, end))
            if t <= end:
                present = joined
            else:
                gone = joined * min(1.0, (t - end) / self.leave_window)
                present = joined - gone
            total += present
        return total

    def sample(
        self,
        t: float,
        rng: "np.random.Generator | None" = None,
        jitter: float = 0.02,
    ) -> int:
        """Integer load at ``t``; with ``rng``, +/- ``jitter`` relative
        Gaussian noise (draws in call order, so a fixed seed and a fixed
        bin sequence replay exactly)."""
        expected = self.concurrent(t)
        if rng is not None and jitter > 0.0:
            expected *= 1.0 + jitter * float(rng.standard_normal())
        return max(0, int(round(expected)))
