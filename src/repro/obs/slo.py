"""Declarative SLOs with multi-window burn-rate verdicts.

The paper's budget argument is a *sustained* guarantee — motion-to-photon
p95 under 100 ms for every student, for the whole lecture — not a
snapshot.  PRs 3 and 6 built the sensors (spans, MTP reports, windowed
signals); this module is the judge that watches them continuously:

* :class:`SloSpec` — one declarative objective: an indicator (latency,
  staleness, tick cost, failover blackout — any sample stream), the
  threshold that makes a sample *bad*, the error budget, and the
  alerting windows;
* :class:`SloEngine` — evaluates every registered spec each poll using
  Google-SRE-style **multi-window burn rates**: the burn rate is the
  observed bad fraction divided by the budget fraction, computed over a
  short (fast) and a long (slow) window.  ``breach`` requires both
  windows burning (the fast window proves it is still happening, the
  slow one that it is not a blip); ``warning`` fires on either window
  alone; hysteresis demotes a breach only after ``clear_polls``
  consecutive clean evaluations, so a flapping indicator cannot strobe
  the incident machinery.

The engine is pure and clock-free: ``evaluate(now)`` depends only on the
sample streams and the time values fed in, so a seeded replay produces a
byte-identical verdict/transition history — the property the flight
recorder's incident dumps (:mod:`repro.obs.flight`) rely on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.signals import SampleWindow, percentile

__all__ = [
    "HEALTHY",
    "WARNING",
    "BREACH",
    "SloEngine",
    "SloSpec",
    "SloTransition",
    "SloVerdict",
    "STATE_CODES",
]

HEALTHY = "healthy"
WARNING = "warning"
BREACH = "breach"

#: Numeric export codes (gauge-friendly; higher is worse).
STATE_CODES = {HEALTHY: 0, WARNING: 1, BREACH: 2}


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over a sample-stream indicator.

    A sample is *bad* when it exceeds ``objective`` (the 100 ms line,
    the staleness budget, the tick period...).  ``budget_fraction`` is
    the tolerated bad fraction — the error budget; the burn rate over a
    window is ``bad_fraction / budget_fraction``, so 1.0 means "spending
    the budget exactly as fast as allowed".  ``breach_burn`` is the
    multi-window page threshold (both windows must exceed it);
    ``warn_burn`` the single-window ticket threshold.
    """

    name: str
    objective: float
    unit: str = "s"
    description: str = ""
    percentile: float = 95.0
    budget_fraction: float = 0.05
    fast_window_s: float = 5.0
    slow_window_s: float = 30.0
    breach_burn: float = 2.0
    warn_burn: float = 1.0
    clear_polls: int = 3

    def __post_init__(self):
        if not self.name:
            raise ValueError("spec needs a name")
        if self.objective < 0:
            raise ValueError("objective must be >= 0")
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ValueError("budget fraction must be in (0, 1]")
        if not 0.0 < self.fast_window_s <= self.slow_window_s:
            raise ValueError("need 0 < fast_window_s <= slow_window_s")
        if not 0.0 < self.warn_burn <= self.breach_burn:
            raise ValueError("need 0 < warn_burn <= breach_burn")
        if self.clear_polls < 1:
            raise ValueError("clear_polls must be >= 1")
        if not 0.0 <= self.percentile <= 100.0:
            raise ValueError("percentile must be in [0, 100]")


@dataclass(frozen=True)
class SloVerdict:
    """One spec's judgment at one evaluation instant."""

    slo: str
    t: float
    state: str            # healthy / warning / breach
    fast_burn: float
    slow_burn: float
    indicator: float      # windowed percentile of the raw samples
    samples: int          # samples currently inside the slow window
    bad: int              # bad samples inside the slow window

    def line(self) -> str:
        return (f"{self.t!r} {self.slo} {self.state} "
                f"fast={self.fast_burn:.3f} slow={self.slow_burn:.3f} "
                f"ind={self.indicator:.6f} n={self.samples} bad={self.bad}")


@dataclass(frozen=True)
class SloTransition:
    """A state change (e.g. ``healthy -> breach``) at time ``t``."""

    t: float
    slo: str
    frm: str
    to: str
    verdict: SloVerdict

    def line(self) -> str:
        return f"{self.t!r} {self.slo} {self.frm}->{self.to}"


class _Watch:
    """Per-spec evaluation state: windowed samples plus hysteresis."""

    __slots__ = ("spec", "_pull", "_good", "_points", "state",
                 "_clean_streak", "breaches", "last_verdict")

    def __init__(self, spec: SloSpec,
                 pull: Callable[[], Sequence[float]],
                 good: Optional[Callable[[float], bool]]):
        self.spec = spec
        self._pull = pull
        self._good = good
        #: (t, value, bad) triples inside the slow window.
        self._points: deque = deque()
        self.state = HEALTHY
        self._clean_streak = 0
        self.breaches = 0
        self.last_verdict: Optional[SloVerdict] = None

    def _is_bad(self, value: float) -> bool:
        if self._good is not None:
            return not self._good(value)
        return value > self.spec.objective

    def evaluate(self, t: float) -> SloVerdict:
        spec = self.spec
        for value in self._pull():
            value = float(value)
            self._points.append((t, value, self._is_bad(value)))
        cutoff = t - spec.slow_window_s
        points = self._points
        while points and points[0][0] < cutoff:
            points.popleft()

        slow_n = len(points)
        slow_bad = sum(1 for _, _, bad in points if bad)
        fast_cutoff = t - spec.fast_window_s
        fast_n = fast_bad = 0
        for point_t, _, bad in reversed(points):
            if point_t < fast_cutoff:
                break
            fast_n += 1
            fast_bad += bad

        def burn(bad: int, n: int) -> float:
            if n == 0:
                return 0.0
            return (bad / n) / spec.budget_fraction

        fast_burn = burn(fast_bad, fast_n)
        slow_burn = burn(slow_bad, slow_n)
        raw = (BREACH if (fast_burn >= spec.breach_burn
                          and slow_burn >= spec.breach_burn)
               else WARNING if (fast_burn >= spec.warn_burn
                                or slow_burn >= spec.warn_burn)
               else HEALTHY)

        # Hysteresis: escalation is immediate; de-escalation from breach
        # needs ``clear_polls`` consecutive sub-breach evaluations.
        if STATE_CODES[raw] >= STATE_CODES[self.state]:
            if raw == BREACH and self.state != BREACH:
                self.breaches += 1
            self.state = raw
            self._clean_streak = 0
        else:
            self._clean_streak += 1
            if self.state != BREACH or self._clean_streak >= spec.clear_polls:
                self.state = raw
                self._clean_streak = 0

        verdict = SloVerdict(
            slo=spec.name, t=t, state=self.state,
            fast_burn=fast_burn, slow_burn=slow_burn,
            indicator=percentile([v for _, v, _ in points],
                                 spec.percentile, default=0.0),
            samples=slow_n, bad=slow_bad,
        )
        self.last_verdict = verdict
        return verdict


class SloEngine:
    """Evaluate a set of :class:`SloSpec` s over live sample streams.

    Indicators attach via :meth:`watch` (a growing sample list, polled
    through a :class:`~repro.obs.signals.SampleWindow` cursor) or
    :meth:`watch_gauge` (a scalar probe read once per evaluation — e.g.
    "seconds since the last snapshot", the silence detector a crashed
    server trips).  Transitions are appended to :attr:`transitions` and
    fanned out to :meth:`on_transition` listeners in sorted-spec order,
    so listener side effects (incident dumps) replay deterministically.
    """

    def __init__(self):
        self._watches: Dict[str, _Watch] = {}
        self.transitions: List[SloTransition] = []
        self._listeners: List[Callable[[SloTransition], None]] = []

    # -- registration ------------------------------------------------------

    def _add(self, watch: _Watch) -> None:
        if watch.spec.name in self._watches:
            raise ValueError(f"duplicate SLO {watch.spec.name!r}")
        self._watches[watch.spec.name] = watch

    def watch(self, spec: SloSpec,
              samples: Callable[[], Sequence[float]],
              good: Optional[Callable[[float], bool]] = None) -> None:
        """Judge ``spec`` over a growing sample list (tracker``.samples``)."""
        window = SampleWindow(samples)
        self._add(_Watch(spec, window.poll, good))

    def watch_gauge(self, spec: SloSpec, value: Callable[[], float],
                    good: Optional[Callable[[float], bool]] = None) -> None:
        """Judge ``spec`` over one probe reading per evaluation."""
        self._add(_Watch(spec, lambda: (value(),), good))

    def on_transition(self,
                      listener: Callable[[SloTransition], None]) -> None:
        self._listeners.append(listener)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, now: float) -> List[SloVerdict]:
        """One poll: every spec judged, transitions fired, sorted order."""
        verdicts: List[SloVerdict] = []
        for name in sorted(self._watches):
            watch = self._watches[name]
            before = watch.state
            verdict = watch.evaluate(now)
            verdicts.append(verdict)
            if verdict.state != before:
                transition = SloTransition(
                    t=now, slo=name, frm=before, to=verdict.state,
                    verdict=verdict)
                self.transitions.append(transition)
                for listener in self._listeners:
                    listener(transition)
        return verdicts

    # -- queries -----------------------------------------------------------

    def verdicts(self) -> Dict[str, SloVerdict]:
        """Latest verdict per spec (specs never evaluated are absent)."""
        return {
            name: watch.last_verdict
            for name, watch in sorted(self._watches.items())
            if watch.last_verdict is not None
        }

    def state(self, name: str) -> str:
        return self._watches[name].state

    def breach_count(self, name: Optional[str] = None) -> int:
        """Breach entries for one spec, or across all specs."""
        if name is not None:
            return self._watches[name].breaches
        return sum(watch.breaches for watch in self._watches.values())

    def fingerprint(self) -> str:
        """Replay witness: the byte-exact transition history."""
        return "\n".join(t.line() for t in self.transitions)

    # -- export ------------------------------------------------------------

    def to_registry(self, registry, prefix: str = "slo") -> None:
        """Latest verdicts as labeled gauges/counters in ``registry``."""
        state = registry.gauge_family(f"{prefix}_state", ("slo",))
        fast = registry.gauge_family(f"{prefix}_burn_fast", ("slo",))
        slow = registry.gauge_family(f"{prefix}_burn_slow", ("slo",))
        indicator = registry.gauge_family(f"{prefix}_indicator", ("slo",))
        breaches = registry.counter_family(f"{prefix}_breaches_total",
                                           ("slo",))
        registry.describe(
            f"{prefix}_state",
            "SLO verdict (0 healthy, 1 warning, 2 breach)")
        registry.describe(f"{prefix}_burn_fast",
                          "Error-budget burn rate over the fast window")
        registry.describe(f"{prefix}_burn_slow",
                          "Error-budget burn rate over the slow window")
        registry.describe(f"{prefix}_indicator",
                          "Windowed indicator percentile (spec units)")
        registry.describe(f"{prefix}_breaches_total",
                          "Breach entries since engine creation")
        for name, verdict in self.verdicts().items():
            state.labels(slo=name).set(STATE_CODES[verdict.state])
            fast.labels(slo=name).set(verdict.fast_burn)
            slow.labels(slo=name).set(verdict.slow_burn)
            indicator.labels(slo=name).set(verdict.indicator)
            child = breaches.labels(slo=name)
            child.value = 0.0
            child.inc(self._watches[name].breaches)
