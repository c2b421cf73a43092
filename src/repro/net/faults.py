"""Deterministic, seed-reproducible fault injection.

Section 3.3's case for regional servers — WAN round-trips eat the whole
100 ms interaction budget — only matters if the classroom *stays up*
through link flaps, loss bursts and server drains.  This module is the
half of that argument the simulator was missing: a way to **cause**
failures on a schedule that is a pure function of the seed, so every
robustness experiment replays byte-for-byte.

Three fault classes, all wired through existing component hooks:

* :class:`LinkOutageSchedule` — hard link outages driving ``Link.up``
  through simulator events; going down drops queued/in-flight traffic.
* :class:`GilbertElliottLoss` — the classic two-state burst-loss chain,
  pluggable as ``Link.loss_model`` (replaces the i.i.d. Bernoulli draw).
* :class:`ServerCrashSchedule` — :class:`~repro.sync.server.SyncServer`
  crash/restart with an ``on_restart`` hook for subscriber re-attach.

Every injected transition is recorded as a :class:`FaultEvent` in a
:class:`FaultLog`, whose :meth:`~FaultLog.fingerprint` is the
byte-for-byte replay witness the determinism tests compare.
:class:`FaultInjector` bundles the schedules behind one shared log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.link import Link
from repro.simkit.engine import Simulator


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault transition, comparable for replay verification."""

    time: float
    kind: str     # e.g. "link_down", "link_up", "server_crash", "server_restart"
    target: str   # link or server name
    detail: str = ""

    def line(self) -> str:
        return f"{self.time!r} {self.kind} {self.target} {self.detail}".rstrip()


class FaultLog:
    """Ordered record of every injected fault transition."""

    def __init__(self):
        self.events: List[FaultEvent] = []

    def record(self, time: float, kind: str, target: str, detail: str = "") -> None:
        self.events.append(FaultEvent(time, kind, target, detail))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def fingerprint(self) -> str:
        """A byte-for-byte replay witness: identical seeds ⇒ identical text."""
        return "\n".join(event.line() for event in self.events)


def _validate_windows(windows: Sequence[Tuple[float, float]]) -> Tuple[Tuple[float, float], ...]:
    cleaned = tuple((float(a), float(b)) for a, b in windows)
    previous_end = -float("inf")
    for start, end in cleaned:
        if start < 0:
            raise ValueError(f"window starts in the past: {start}")
        if end <= start:
            raise ValueError(f"empty or inverted window: ({start}, {end})")
        if start < previous_end:
            raise ValueError("windows must be sorted and non-overlapping")
        previous_end = end
    return cleaned


class LinkOutageSchedule:
    """Scheduled hard outages: the link is down during each ``[start, end)``.

    :meth:`apply` arms simulator events that flip ``Link.up``; thanks to the
    link's outage semantics, going down drops everything queued or on the
    wire (counted in ``stats.dropped_down``) and coming back up starts from
    a clean transmitter.
    """

    def __init__(self, windows: Sequence[Tuple[float, float]]):
        self.windows = _validate_windows(windows)

    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        horizon: float,
        mtbf: float,
        mean_duration: float,
        min_duration: float = 1e-3,
    ) -> "LinkOutageSchedule":
        """Draw an exponential up/down process over ``[0, horizon)``.

        Up-times are Exponential(``mtbf``), outage durations
        Exponential(``mean_duration``) floored at ``min_duration``.  The
        draw order is fixed, so the same generator state always yields the
        same schedule.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if mtbf <= 0 or mean_duration <= 0:
            raise ValueError("mtbf and mean_duration must be positive")
        windows: List[Tuple[float, float]] = []
        t = float(rng.exponential(mtbf))
        while t < horizon:
            duration = max(min_duration, float(rng.exponential(mean_duration)))
            end = min(horizon, t + duration)
            windows.append((t, end))
            t = end + float(rng.exponential(mtbf))
        return cls(windows)

    def apply(self, sim: Simulator, link: Link,
              log: Optional[FaultLog] = None) -> None:
        """Arm the outage events against ``link`` (idempotent per call)."""
        for start, end in self.windows:
            def _down(link=link, start=start):
                link.up = False
                if log is not None:
                    log.record(sim.now, "link_down", link.name,
                               f"in_flight_dropped={link.stats.dropped_down}")
            def _up(link=link, end=end):
                link.up = True
                if log is not None:
                    log.record(sim.now, "link_up", link.name)
            sim.call_at(start, _down)
            sim.call_at(end, _up)


class GilbertElliottLoss:
    """Two-state Markov burst loss, pluggable as ``Link.loss_model``.

    Per packet the chain first transitions (good→bad with probability
    ``p_good_bad``, bad→good with ``p_bad_good``) and then drops the packet
    with the state's loss probability.  Both draws come from the link's own
    named RNG stream, so loss patterns are a pure function of the seed.
    """

    def __init__(
        self,
        p_good_bad: float,
        p_bad_good: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ):
        for label, p in (("p_good_bad", p_good_bad), ("p_bad_good", p_bad_good),
                         ("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} must be in [0,1], got {p}")
        self.p_good_bad = float(p_good_bad)
        self.p_bad_good = float(p_bad_good)
        self.loss_good = float(loss_good)
        self.loss_bad = float(loss_bad)
        self.bad = False
        self.packets = 0
        self.losses = 0
        self.max_burst = 0
        self._current_burst = 0

    @property
    def stationary_bad(self) -> float:  # replint: ignore[ARCH003] -- analytic loss rate the burst-loss tests check against
        """Long-run fraction of packets seeing the bad state."""
        denominator = self.p_good_bad + self.p_bad_good
        if denominator == 0.0:
            return 1.0 if self.bad else 0.0
        return self.p_good_bad / denominator

    @property
    def expected_loss_rate(self) -> float:  # replint: ignore[ARCH003] -- analytic loss rate the burst-loss tests check against
        pi_bad = self.stationary_bad
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    def packet_lost(self, rng: np.random.Generator) -> bool:
        if self.bad:
            if rng.random() < self.p_bad_good:
                self.bad = False
        else:
            if rng.random() < self.p_good_bad:
                self.bad = True
        self.packets += 1
        p = self.loss_bad if self.bad else self.loss_good
        lost = p > 0.0 and rng.random() < p
        if lost:
            self.losses += 1
            self._current_burst += 1
            self.max_burst = max(self.max_burst, self._current_burst)
        else:
            self._current_burst = 0
        return lost

    def attach(self, link: Link) -> "GilbertElliottLoss":
        link.loss_model = self
        return self


class ServerCrashSchedule:
    """Crash (and optionally restart) a sync server on a fixed schedule.

    Each entry is ``(crash_time, restart_time)``; ``restart_time`` of
    ``None`` means the server stays dead.  On restart the server's world
    and delta state are fresh (its memory died with it), ticking is
    re-armed until ``run_until`` when given, and ``on_restart(server)``
    lets the deployment re-attach subscribers.
    """

    def __init__(self, crashes: Sequence[Tuple[float, Optional[float]]]):
        cleaned: List[Tuple[float, Optional[float]]] = []
        previous = -float("inf")
        for crash_at, restart_at in crashes:
            crash_at = float(crash_at)
            if crash_at <= previous:
                raise ValueError("crash times must be strictly increasing "
                                 "and after the previous restart")
            if restart_at is not None:
                restart_at = float(restart_at)
                if restart_at <= crash_at:
                    raise ValueError(
                        f"restart {restart_at} not after crash {crash_at}")
                previous = restart_at
            else:
                previous = float("inf")
            cleaned.append((crash_at, restart_at))
        self.crashes = tuple(cleaned)

    def apply(
        self,
        sim: Simulator,
        server,
        log: Optional[FaultLog] = None,
        run_until: Optional[float] = None,
        on_restart: Optional[Callable[[object], None]] = None,
    ) -> None:
        for crash_at, restart_at in self.crashes:
            def _crash(server=server):
                dropped = server.n_subscribers
                server.crash()
                if log is not None:
                    log.record(sim.now, "server_crash", server.name,
                               f"subscribers_dropped={dropped}")
            sim.call_at(crash_at, _crash)
            if restart_at is None:
                continue
            def _restart(server=server):
                server.restart()
                if run_until is not None and run_until > sim.now:
                    server.run(duration=run_until - sim.now)
                if log is not None:
                    log.record(sim.now, "server_restart", server.name)
                if on_restart is not None:
                    on_restart(server)
            sim.call_at(restart_at, _restart)


class FaultInjector:
    """One-stop orchestration: schedules against targets, one shared log."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.log = FaultLog()

    def outage(self, link: Link, schedule: LinkOutageSchedule) -> LinkOutageSchedule:
        schedule.apply(self.sim, link, log=self.log)
        return schedule

    def burst_loss(self, link: Link, model: GilbertElliottLoss) -> GilbertElliottLoss:
        return model.attach(link)

    def server_crash(
        self,
        server,
        schedule: ServerCrashSchedule,
        run_until: Optional[float] = None,
        on_restart: Optional[Callable[[object], None]] = None,
    ) -> ServerCrashSchedule:
        schedule.apply(self.sim, server, log=self.log,
                       run_until=run_until, on_restart=on_restart)
        return schedule

    def fingerprint(self) -> str:
        return self.log.fingerprint()
