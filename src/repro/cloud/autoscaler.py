"""Closed-loop shard autoscaling from windowed obs signals.

ROADMAP's elasticity item: the federation can now grow and shrink
(:meth:`~repro.sync.federation.ShardedSyncService.add_site` /
``decommission_site``), but nothing *decided* when.  This module is the
control plane:

* :class:`ShardTemplate` — t-shirt-size shard SKUs (capacity at the
  tick budget, provisioning lag, unit cost), the catalogue an operator
  actually requisitions from;
* :class:`AutoscalePlanner` — the **pure, deterministic** policy core:
  per-shard :class:`ShardSignals` in, :class:`ScaleAction` s out, with
  hysteresis (consecutive-poll streaks), a fleet-wide cooldown, and
  optional pre-warming from a
  :class:`~repro.workload.arrival.ClassScheduleForecast` (scheduled
  class starts are the one flash crowd a campus can see coming);
* :class:`ShardAutoscaler` — the live actuator binding the planner to a
  real :class:`~repro.sync.federation.ShardedSyncService`: it polls
  shard signals through :mod:`repro.obs.signals` windows, splits hot
  shards by provisioning a scored site and migrating the farther half
  of their users (make-before-break ``move_user``), merges cold shards
  via ``drain_site``, and admission-controls joins — a flash crowd
  beyond fleet headroom queues rather than melting a shard, and drains
  as capacity lands.

The same planner instance drives both this live loop and the
fluid-scale :class:`~repro.cloud.fleet.FluidFleet` used by the C3g
benchmark, so the policy exercised at 10^6 simulated users is byte-for-
byte the one the event-driven tests pin.  Every decision is appended to
a :class:`ScaleDecision` log whose :func:`decision_fingerprint` replays
identically for a fixed seed — the control loop is a pure function of
the simulated signals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cloud.regions import DEFAULT_CANDIDATE_SITES
from repro.metrics.collector import MetricsRegistry
from repro.obs.signals import CounterRate, SampleWindow, percentile

__all__ = [
    "SHARD_TEMPLATES",
    "AutoscalePlanner",
    "AutoscalerConfig",
    "ScaleAction",
    "ScaleDecision",
    "ShardAutoscaler",
    "ShardSignals",
    "ShardTemplate",
    "decision_fingerprint",
]


# -- shard SKUs ------------------------------------------------------------


@dataclass(frozen=True)
class ShardTemplate:
    """A t-shirt-size shard SKU.

    ``capacity`` is the subscriber count the SKU serves inside its tick
    budget with headroom (the planner treats it as the denominator of
    every fill computation, not a hard wall); ``provision_delay_s`` is
    the request→serving lag of bringing one up; ``unit_cost_per_hour``
    weights the server-hours bill (C3g's second axis).
    """

    name: str
    capacity: int
    tick_rate_hz: float = 20.0
    provision_delay_s: float = 30.0
    unit_cost_per_hour: float = 1.0

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if self.tick_rate_hz <= 0:
            raise ValueError("tick rate must be positive")
        if self.provision_delay_s < 0:
            raise ValueError("provision delay must be non-negative")
        if self.unit_cost_per_hour <= 0:
            raise ValueError("unit cost must be positive")


#: The catalogue.  Capacities sit where the vectorized cost model keeps
#: the modeled tick inside ~75% of a 20 Hz period (see
#: :meth:`repro.sync.server.ServerCostModel.vectorized`): larger SKUs
#: buy a mildly better per-seat price, mirroring real instance pricing.
SHARD_TEMPLATES: Dict[str, ShardTemplate] = {
    template.name: template
    for template in (
        ShardTemplate("edu.s", capacity=20_000, unit_cost_per_hour=0.40),
        ShardTemplate("edu.m", capacity=60_000, unit_cost_per_hour=1.00),
        ShardTemplate("edu.l", capacity=150_000, unit_cost_per_hour=2.20),
    )
}


# -- signals and decisions -------------------------------------------------


@dataclass(frozen=True)
class ShardSignals:
    """One shard's windowed health, as sampled at a poll.

    ``tick_utilization`` is mean modeled tick cost over the window
    divided by the tick period (>1 means the shard is stretching its
    tick interval); ``staleness_p95_s`` the windowed p95 of its home
    subscribers' snapshot staleness; ``egress_bytes_per_s`` the
    snapshot-byte rate since the previous poll.
    """

    site: str
    subscribers: int
    tick_utilization: float
    staleness_p95_s: float
    egress_bytes_per_s: float


@dataclass(frozen=True)
class ScaleAction:
    """One planner verdict: ``kind`` in split/merge/provision."""

    kind: str
    site: Optional[str] = None
    count: int = 1
    reason: str = ""


@dataclass(frozen=True)
class ScaleDecision:
    """One actuated control-plane event, logged for replay comparison."""

    t: float
    action: str
    site: Optional[str]
    detail: str = ""


def decision_fingerprint(decisions: Sequence[ScaleDecision]) -> str:
    """A replay-comparable digest of a decision log (newline-joined)."""
    return "\n".join(
        f"{d.t:.6f} {d.action} {d.site or '-'} {d.detail}" for d in decisions
    )


# -- policy ----------------------------------------------------------------


@dataclass(frozen=True)
class AutoscalerConfig:
    """Planner thresholds and pacing.

    Hysteresis comes from two places: a shard must breach for
    ``breach_polls`` consecutive polls before a split (resp. stay cold
    ``clear_polls`` polls before a merge), and any action starts a
    fleet-wide ``cooldown_s`` during which the planner stays silent —
    the make-before-break churn of the previous action must settle into
    the signals before they are trusted again.  Defaults are tuned for
    the live (sub-minute) loop; the fluid C3g trace passes its own
    slower pacing.
    """

    poll_period_s: float = 0.5
    split_utilization: float = 0.85
    merge_utilization: float = 0.30
    staleness_budget_s: float = 0.120
    breach_polls: int = 2
    clear_polls: int = 4
    cooldown_s: float = 3.0
    min_shards: int = 1
    max_shards: int = 32
    #: Prewarm sizes the fleet so projected load sits at this fill.
    target_fill: float = 0.70
    #: A merge only fires if the survivors would sit under this fill.
    merge_target_fill: float = 0.60
    #: Joins beyond this fraction of total fleet capacity are deferred.
    admission_fill: float = 0.95
    #: How far ahead the forecast is consulted for pre-warming.
    prewarm_lead_s: float = 60.0

    def __post_init__(self):
        if self.poll_period_s <= 0:
            raise ValueError("poll period must be positive")
        if not 0.0 < self.merge_utilization < self.split_utilization:
            raise ValueError(
                "need 0 < merge_utilization < split_utilization")
        if self.staleness_budget_s <= 0:
            raise ValueError("staleness budget must be positive")
        if self.breach_polls < 1 or self.clear_polls < 1:
            raise ValueError("streak lengths must be >= 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown must be non-negative")
        if not 1 <= self.min_shards <= self.max_shards:
            raise ValueError("need 1 <= min_shards <= max_shards")
        for name in ("target_fill", "merge_target_fill", "admission_fill"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        if self.prewarm_lead_s < 0:
            raise ValueError("prewarm lead must be non-negative")


class AutoscalePlanner:
    """The pure policy core: signals in, actions out, no side effects
    beyond its own hysteresis state.

    Determinism contract: :meth:`decide` depends only on the sequence of
    ``(t, signals)`` pairs it has been fed (signals are re-sorted by
    site internally), so identical runs produce identical action
    streams regardless of dict iteration or wall clock.
    """

    def __init__(
        self,
        template: ShardTemplate,
        config: Optional[AutoscalerConfig] = None,
        forecast=None,
    ):
        self.template = template
        self.config = config if config is not None else AutoscalerConfig()
        #: Optional ClassScheduleForecast-shaped object (``expected_joins``).
        self.forecast = forecast
        self._hot_streak: Dict[str, int] = {}
        self._cold_streak: Dict[str, int] = {}
        self._cooldown_until = -math.inf

    def _is_hot(self, s: ShardSignals) -> bool:
        cfg = self.config
        return (s.tick_utilization >= cfg.split_utilization
                or s.staleness_p95_s > cfg.staleness_budget_s)

    def _is_cold(self, s: ShardSignals) -> bool:
        cfg = self.config
        return (s.tick_utilization <= cfg.merge_utilization
                and s.staleness_p95_s <= cfg.staleness_budget_s)

    def decide(
        self,
        t: float,
        signals: Sequence[ShardSignals],
        pending: int = 0,
    ) -> List[ScaleAction]:
        """One control round.  ``pending`` counts shards already
        requested but not yet serving, so the planner neither exceeds
        ``max_shards`` nor re-requests capacity it is already waiting
        for."""
        cfg = self.config
        signals = sorted(signals, key=lambda s: s.site)
        live = {s.site for s in signals}
        for stale in sorted(set(self._hot_streak) - live):
            del self._hot_streak[stale]
        for stale in sorted(set(self._cold_streak) - live):
            del self._cold_streak[stale]
        for s in signals:
            self._hot_streak[s.site] = (
                self._hot_streak.get(s.site, 0) + 1 if self._is_hot(s) else 0
            )
            self._cold_streak[s.site] = (
                self._cold_streak.get(s.site, 0) + 1 if self._is_cold(s)
                else 0
            )
        if t < self._cooldown_until:
            return []

        n = len(signals) + pending
        capacity = self.template.capacity
        total = sum(s.subscribers for s in signals)
        actions: List[ScaleAction] = []

        # 1. Pre-warm: size the fleet for load the forecast says is
        # coming inside the provisioning lead, at the target fill.
        if self.forecast is not None and n < cfg.max_shards:
            horizon = max(cfg.prewarm_lead_s, self.template.provision_delay_s)
            expected = float(self.forecast.expected_joins(t, t + horizon))
            if expected > 0.0:
                needed = math.ceil(
                    (total + expected) / (cfg.target_fill * capacity))
                grow = min(needed, cfg.max_shards) - n
                if grow > 0:
                    actions.append(ScaleAction(
                        "provision", count=grow,
                        reason=(f"forecast +{expected:.0f} joins within "
                                f"{horizon:.0f}s"),
                    ))

        # 2. Split the hottest shard with a full breach streak.
        if not actions and n < cfg.max_shards:
            breached = [
                s for s in signals
                if self._hot_streak.get(s.site, 0) >= cfg.breach_polls
            ]
            if breached:
                hottest = max(
                    breached,
                    key=lambda s: (s.tick_utilization, s.staleness_p95_s,
                                   s.site))
                actions.append(ScaleAction(
                    "split", site=hottest.site,
                    reason=(f"util {hottest.tick_utilization:.2f} "
                            f"stale_p95 {hottest.staleness_p95_s * 1e3:.0f}ms"),
                ))

        # 3. Merge the emptiest long-cold shard, if the survivors can
        # absorb the whole fleet comfortably.
        if not actions and len(signals) > cfg.min_shards and pending == 0:
            cold = [
                s for s in signals
                if self._cold_streak.get(s.site, 0) >= cfg.clear_polls
            ]
            if cold:
                victim = min(cold, key=lambda s: (s.subscribers, s.site))
                survivors_capacity = (len(signals) - 1) * capacity
                if total <= cfg.merge_target_fill * survivors_capacity:
                    actions.append(ScaleAction(
                        "merge", site=victim.site,
                        reason=(f"util {victim.tick_utilization:.2f} "
                                f"subs {victim.subscribers}"),
                    ))

        if actions:
            self._cooldown_until = t + cfg.cooldown_s
            for action in actions:
                if action.site is not None:
                    self._hot_streak.pop(action.site, None)
                    self._cold_streak.pop(action.site, None)
        return actions


# -- site selection --------------------------------------------------------


def score_sites(
    candidates: Sequence[str],
    users: Sequence[str],
    delay_fn: Callable[[str, str], float],
) -> List[Tuple[float, str]]:
    """Rank candidate sites for a new shard: mean access delay to the
    users it would relieve, ties broken by name (deterministic).  With
    no users every candidate scores zero and name order decides."""
    scored = []
    for site in candidates:
        if users:
            score = sum(delay_fn(user, site) for user in users) / len(users)
        else:
            score = 0.0
        scored.append((score, site))
    return sorted(scored)


# -- the live actuator -----------------------------------------------------


class ShardAutoscaler:
    """Bind an :class:`AutoscalePlanner` to a live
    :class:`~repro.sync.federation.ShardedSyncService`.

    ``attach`` is the service-owner's callback ``(user_id, site) ->
    None`` invoked when an admitted user should come online (create the
    client, start its update loop); without one, admitted users are
    routed (plan/home updated) but not attached, which is what the
    planner-only tests want.
    """

    def __init__(
        self,
        sim,
        service,
        template: ShardTemplate,
        config: Optional[AutoscalerConfig] = None,
        forecast=None,
        site_pool: Sequence[str] = DEFAULT_CANDIDATE_SITES,
        attach: Optional[Callable[[str, str], None]] = None,
        slo_engine=None,
        flight=None,
    ):
        self.sim = sim
        self.service = service
        self.template = template
        self.config = config if config is not None else AutoscalerConfig()
        self.planner = AutoscalePlanner(template, self.config, forecast)
        self.site_pool = list(site_pool)
        self.attach = attach
        #: Optional :class:`~repro.obs.slo.SloEngine`; when wired, every
        #: poll evaluates it and active breaches count as provisioning
        #: pressure alongside deferred admissions.
        self.slo_engine = slo_engine
        #: Optional :class:`~repro.obs.flight.FlightRecorder`, polled in
        #: lockstep so its retention window tracks the control loop.
        self.flight = flight
        self.metrics = MetricsRegistry()
        self.decisions: List[ScaleDecision] = []
        self.deferred: List[str] = []
        #: site -> simulated ready time, for capacity already requested.
        self._pending_sites: Dict[str, float] = {}
        self._synth_counter = 0
        self._tick_windows: Dict[str, SampleWindow] = {}
        self._egress_rates: Dict[str, CounterRate] = {}
        self._staleness_windows: Dict[str, SampleWindow] = {}

    # -- probing (the obs binding) ----------------------------------------

    def signals(self) -> List[ShardSignals]:
        """Windowed per-shard signals, sites in sorted order."""
        now = self.sim.now
        out: List[ShardSignals] = []
        staleness_by_site: Dict[str, List[float]] = {}
        for user_id in sorted(self.service.clients):
            federated = self.service.clients[user_id]
            window = self._staleness_windows.get(user_id)
            if window is None:
                window = SampleWindow(
                    lambda fed=federated: fed.client.snapshot_latency.samples)
                self._staleness_windows[user_id] = window
            staleness_by_site.setdefault(
                federated.home, []).extend(window.poll())
        for site in sorted(self.service.shards):
            shard = self.service.shards[site]
            if shard.crashed:
                continue
            window = self._tick_windows.get(site)
            if window is None:
                window = SampleWindow(
                    lambda s=shard: s.metrics.tracker("tick_cost").samples)
                self._tick_windows[site] = window
            costs = window.poll()
            utilization = (
                (sum(costs) / len(costs)) / shard.tick_period if costs
                else 0.0
            )
            rate = self._egress_rates.get(site)
            if rate is None:
                rate = CounterRate(
                    lambda s=shard: s.metrics.counter("snapshot_bytes"))
                self._egress_rates[site] = rate
            out.append(ShardSignals(
                site=site,
                subscribers=shard.n_subscribers,
                tick_utilization=utilization,
                staleness_p95_s=percentile(
                    staleness_by_site.get(site, []), 95.0, default=0.0),
                egress_bytes_per_s=rate.poll(now),
            ))
        return out

    # -- bookkeeping -------------------------------------------------------

    def _record(self, action: str, site: Optional[str], detail: str = ""):
        self.decisions.append(
            ScaleDecision(self.sim.now, action, site, detail))
        self.metrics.incr(f"decisions_{action}")

    def fingerprint(self) -> str:
        return decision_fingerprint(self.decisions)

    def _live_subscribers(self) -> int:
        return sum(
            shard.n_subscribers for shard in self.service.shards.values()
            if not shard.crashed
        )

    def _active_shards(self) -> int:
        return sum(
            1 for shard in self.service.shards.values() if not shard.crashed)

    def _has_headroom(self, extra: int = 1) -> bool:
        limit = (self.config.admission_fill * self.template.capacity
                 * self._active_shards())
        return self._live_subscribers() + extra <= limit

    # -- actuation ---------------------------------------------------------

    def _pick_site(self, relieve_site: Optional[str]) -> str:
        """A site for the next shard: best-scored unused pool entry, or
        a synthesized name once the pool is exhausted."""
        used = set(self.service.shards) | set(self._pending_sites)
        available = [s for s in self.site_pool if s not in used]
        if not available:
            self._synth_counter += 1
            return f"{self.service.name}-as{self._synth_counter}"
        if relieve_site is not None:
            users = sorted(
                user_id
                for user_id, federated in self.service.clients.items()
                if federated.home == relieve_site
            )
        else:
            users = sorted(self.service.clients)
        return score_sites(
            available, users, self.service.access_delay)[0][1]

    def _request_site(self, relieve_site: Optional[str], reason: str) -> bool:
        if (self._active_shards() + len(self._pending_sites)
                >= self.config.max_shards):
            return False
        new_site = self._pick_site(relieve_site)
        ready_at = self.sim.now + self.template.provision_delay_s
        self._pending_sites[new_site] = ready_at
        self._record("request", new_site, reason)
        self.sim.call_later(
            self.template.provision_delay_s,
            lambda site=new_site, src=relieve_site: self._provision(site, src))
        return True

    def _provision(self, site: str, split_from: Optional[str]) -> None:
        self._pending_sites.pop(site, None)
        if site in self.service.shards:
            return
        self.service.add_site(site)
        self._record("provision", site)
        if split_from is not None and split_from in self.service.shards \
                and not self.service.shards[split_from].crashed:
            homed = sorted(
                (user_id
                 for user_id, federated in self.service.clients.items()
                 if federated.home == split_from),
                key=lambda u: (self.service.access_delay(u, site), u),
            )
            movers = homed[:len(homed) // 2]
            for user_id in movers:
                self.service.move_user(user_id, site)
            self._record("split", split_from,
                         f"moved {len(movers)} -> {site}")
        self._drain_deferred()

    def _merge(self, site: str) -> None:
        if site not in self.service.shards \
                or self.service.shards[site].crashed \
                or self._active_shards() <= self.config.min_shards:
            return
        drained = self.service.drain_site(site)
        self._record("merge", site, f"drained {len(drained)}")

    def _actuate(self, action: ScaleAction) -> None:
        if action.kind in ("provision", "split"):
            for _ in range(action.count):
                if not self._request_site(
                        action.site if action.kind == "split" else None,
                        action.reason):
                    break
        elif action.kind == "merge":
            assert action.site is not None
            self._merge(action.site)
        else:  # pragma: no cover - planner emits a fixed action set
            raise ValueError(f"unknown action kind {action.kind!r}")

    # -- admission ---------------------------------------------------------

    def place_user(self, user_id: str) -> str:
        """The admission-time placement: nearest live site with template
        headroom, else the least-loaded (deterministic ties)."""
        live = [
            site for site, shard in self.service.shards.items()
            if not shard.crashed
        ]
        if not live:
            raise RuntimeError("no live shards to place on")
        ranked = sorted(
            live,
            key=lambda s: (self.service.access_delay(user_id, s), s))
        for site in ranked:
            if self.service.shards[site].n_subscribers < self.template.capacity:
                return site
        return min(
            ranked, key=lambda s: (self.service.shards[s].n_subscribers, s))

    def _admit(self, user_id: str) -> str:
        site = self.place_user(user_id)
        self.service.home[user_id] = site
        self.service.plan.assignment[user_id] = site
        self.service.plan.rtts[user_id] = \
            2.0 * self.service.access_delay(user_id, site)
        self._record("admit", site, user_id)
        if self.attach is not None:
            self.attach(user_id, site)
        return site

    def request_join(self, user_id: str) -> bool:
        """Admission control for one join.  True: routed (and attached,
        when an ``attach`` callback is wired) now.  False: deferred —
        the user is queued and admitted on a later poll, once capacity
        lands."""
        if user_id in self.service.clients or user_id in self.deferred:
            raise ValueError(f"user {user_id!r} already joined or queued")
        if self._has_headroom():
            self._admit(user_id)
            return True
        self.deferred.append(user_id)
        self._record("defer", None, user_id)
        return False

    def _drain_deferred(self) -> None:
        while self.deferred and self._has_headroom():
            self._admit(self.deferred.pop(0))

    # -- the loop ----------------------------------------------------------

    def poll_once(self) -> List[ScaleAction]:
        """One control round: probe, judge, decide, actuate, drain."""
        signals = self.signals()
        # Judge before deciding: the flight recorder drains its streams
        # first so a breach-triggered incident dump sees this poll's
        # samples, then the SLO engine rules on the same instant.
        breached: List[str] = []
        if self.flight is not None:
            self.flight.poll(self.sim.now)
        if self.slo_engine is not None:
            for verdict in self.slo_engine.evaluate(self.sim.now):
                if verdict.state == "breach":
                    breached.append(verdict.slo)
            if breached:
                self.metrics.incr("slo_breach_polls")
            self.metrics.set_gauge("slo_breached_specs", len(breached))
        actions = self.planner.decide(
            self.sim.now, signals, pending=len(self._pending_sites))
        for action in actions:
            self._actuate(action)
        # A flash crowd can outrun the signal path: deferred joins — and
        # active SLO breaches — are structural pressure, acted on even
        # before utilization trips the planner.
        if (self.deferred or breached) and not self._pending_sites \
                and not self._has_headroom():
            reason = (f"admission backlog {len(self.deferred)}"
                      if self.deferred
                      else "slo breach " + ",".join(sorted(breached)))
            self._request_site(None, reason)
        self._drain_deferred()
        return actions

    def run(self, duration: float):
        """The polling process (mirrors the service's own loops)."""
        if duration <= 0:
            raise ValueError("duration must be positive")

        def poll():
            self.poll_once()
            return self.config.poll_period_s

        return self.sim.every(duration, poll)
