"""Fluid-scale fleet model: the autoscaler at 10^5-10^6 users.

The event-driven federation tops out around tens of clients per run —
every pose update is a simulated packet.  The autoscaler's *decision
problem*, though, lives entirely in per-shard aggregates: subscriber
counts, modeled tick cost, staleness.  :class:`FluidFleet` keeps exactly
those aggregates per macro-shard and derives the signals analytically
from the same :class:`~repro.sync.server.ServerCostModel` the live
:class:`~repro.sync.server.SyncServer` charges:

* tick cost     ``cost(n) = cost_model.tick_cost(n, n*deg, n*deg)``
  (every subscriber publishes each tick; grid interest examines and
  sends ~``deg`` neighbors per subscriber, the nearest-k cap);
* an overloaded shard stretches its tick exactly like the live server
  (``effective_period = max(period, cost)``);
* staleness p95 ``= access_p95 + 1.5 * effective_period`` — WAN access
  plus expected snapshot age under the (possibly stretched) cadence.

Placement is fluid too: arrivals fill the emptiest shards, departures
drain the fullest, and a provision/merge rebalances to even fill — the
analytic limit of many per-user ``move_user`` calls.  The planner
driving it is the *same* :class:`~repro.cloud.autoscaler.AutoscalePlanner`
instance class the live loop uses, so C3g's headline numbers exercise
the policy code the tier-1 tests pin, six orders of magnitude up.

Everything is integer/float arithmetic over the caller's load trace —
no RNG, no wall clock — so a repeated run reproduces the decision log
byte for byte (C3g's replay gate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.autoscaler import (
    AutoscalePlanner,
    AutoscalerConfig,
    ScaleDecision,
    ShardSignals,
    ShardTemplate,
    decision_fingerprint,
)
from repro.sync.server import ServerCostModel

__all__ = ["FleetResult", "FluidFleet"]

#: Wire bytes per forwarded entity state (pose + header amortized),
#: used only for the egress signal — matches the quantized pose size.
STATE_BYTES = 48


@dataclass
class FleetResult:
    """Aggregates of one :meth:`FluidFleet.run`."""

    server_hours: float
    slo_violation_minutes: float
    deferred_user_minutes: float
    peak_shards: int
    mean_shards: float
    peak_load: int
    decisions: List[ScaleDecision]
    bins: List[Dict[str, float]]

    @property
    def fingerprint(self) -> str:
        return decision_fingerprint(self.decisions)

    def summary(self) -> Dict[str, float]:
        return {
            "server_hours": round(self.server_hours, 3),
            "slo_violation_minutes": round(self.slo_violation_minutes, 3),
            "deferred_user_minutes": round(self.deferred_user_minutes, 3),
            "peak_shards": self.peak_shards,
            "mean_shards": round(self.mean_shards, 3),
            "peak_load": self.peak_load,
            "decisions": len(self.decisions),
        }


class FluidFleet:
    """Macro-shard fleet driven by a load trace.

    Parameters
    ----------
    template:
        The shard SKU every macro-shard instantiates.
    config:
        Planner pacing/thresholds; required unless ``static_shards`` is
        given.  For a day-long trace pass day-scale pacing (poll period
        = the trace bin, minutes of cooldown).
    forecast:
        Optional ``expected_joins(t0, t1)`` provider for pre-warming.
    static_shards:
        When set, the planner is disabled and the fleet holds exactly
        this many shards forever — the C3f-style baseline arm.
    cost_model / interest_degree / access_p95_s:
        The analytic signal model (see module docstring).
    slo_violation_fraction:
        A bin counts as violating when more than this fraction of the
        offered users sit on over-budget shards *or are deferred* —
        deferral is a denial of service, so admission control cannot
        game the SLO metric.
    """

    def __init__(
        self,
        template: ShardTemplate,
        config: Optional[AutoscalerConfig] = None,
        forecast=None,
        *,
        static_shards: Optional[int] = None,
        cost_model: Optional[ServerCostModel] = None,
        interest_degree: int = 8,
        access_p95_s: float = 0.030,
        slo_violation_fraction: float = 0.05,
    ):
        if static_shards is not None and static_shards < 1:
            raise ValueError("static_shards must be >= 1")
        if interest_degree < 1:
            raise ValueError("interest degree must be >= 1")
        self.template = template
        self.config = config if config is not None else AutoscalerConfig()
        self.cost_model = (
            cost_model if cost_model is not None
            else ServerCostModel.vectorized()
        )
        self.interest_degree = int(interest_degree)
        self.access_p95_s = float(access_p95_s)
        self.slo_violation_fraction = float(slo_violation_fraction)
        self.static = static_shards is not None
        self.planner = (
            None if self.static
            else AutoscalePlanner(template, self.config, forecast)
        )
        self._site_counter = 0
        self.shards: Dict[str, int] = {}
        for _ in range(static_shards if self.static
                       else self.config.min_shards):
            self._new_site()
        #: (ready_at, site) of requested-but-warming shards.
        self.pending: List[Tuple[float, str]] = []
        self.decisions: List[ScaleDecision] = []
        self.deferred = 0

    # -- fleet mechanics ---------------------------------------------------

    def _new_site(self) -> str:
        site = f"fluid{self._site_counter}"
        self._site_counter += 1
        self.shards[site] = 0
        return site

    def _rebalance_even(self) -> None:
        """Even out fill across shards (the fluid limit of move_user)."""
        sites = sorted(self.shards)
        total = sum(self.shards.values())
        base, extra = divmod(total, len(sites))
        for index, site in enumerate(sites):
            self.shards[site] = base + (1 if index < extra else 0)

    def _admit(self, arrivals: int) -> int:
        """Place up to ``arrivals`` users; returns how many got in."""
        capacity = self.template.capacity
        headroom = int(
            self.config.admission_fill * capacity * len(self.shards)
            - sum(self.shards.values()))
        admitted = max(0, min(arrivals, headroom))
        remaining = admitted
        while remaining > 0:
            # Fill the emptiest shards first, deterministic site ties.
            site = min(sorted(self.shards), key=lambda s: self.shards[s])
            room = max(1, capacity - self.shards[site])
            take = min(remaining, room)
            self.shards[site] += take
            remaining -= take
        return admitted

    def _depart(self, departures: int) -> None:
        remaining = departures
        while remaining > 0:
            site = max(sorted(self.shards), key=lambda s: self.shards[s])
            take = min(remaining, self.shards[site])
            if take == 0:
                break
            self.shards[site] -= take
            remaining -= take

    # -- the analytic signal model ----------------------------------------

    def shard_signals(self) -> List[ShardSignals]:
        period = 1.0 / self.template.tick_rate_hz
        deg = self.interest_degree
        out = []
        for site in sorted(self.shards):
            n = self.shards[site]
            cost = self.cost_model.tick_cost(
                n_updates=n, n_states_sent=n * deg, pairs_scanned=n * deg,
            )
            effective = max(period, cost)
            out.append(ShardSignals(
                site=site,
                subscribers=n,
                tick_utilization=cost / period,
                staleness_p95_s=self.access_p95_s + 1.5 * effective,
                egress_bytes_per_s=n * deg * STATE_BYTES / effective,
            ))
        return out

    # -- stepping ----------------------------------------------------------

    def step(self, t: float, dt: float, target_load: int) -> Dict[str, float]:
        """Advance one trace bin; returns the bin record."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        target_load = max(0, int(target_load))
        # 1. Warming shards come online (even rebalance folds them in).
        landed = [site for ready_at, site in self.pending if ready_at <= t]
        if landed:
            self.pending = [
                (ready_at, site) for ready_at, site in self.pending
                if ready_at > t
            ]
            for site in landed:
                self.shards[site] = 0
                self.decisions.append(
                    ScaleDecision(t, "provision", site))
            self._rebalance_even()
        # 2. Reconcile the population (deferred users keep knocking:
        # they are part of the offered target, not a separate queue).
        current = sum(self.shards.values())
        if target_load > current:
            admitted = self._admit(target_load - current)
            self.deferred = target_load - current - admitted
        else:
            self._depart(current - target_load)
            self.deferred = 0
        # 3. Probe and (maybe) act.
        signals = self.shard_signals()
        if self.planner is not None:
            actions = self.planner.decide(
                t, signals, pending=len(self.pending))
            for action in actions:
                self._actuate(t, action)
            if self.deferred and not self.pending and \
                    len(self.shards) + len(self.pending) < \
                    self.config.max_shards:
                self._request(t, f"admission backlog {self.deferred}")
        # 4. Accounting.
        violating = sum(
            s.subscribers for s in signals
            if s.staleness_p95_s > self.config.staleness_budget_s
        ) + self.deferred
        offered = max(1, target_load)
        violates = (violating / offered) > self.slo_violation_fraction
        billed = len(self.shards) + len(self.pending)
        return {
            "t": t,
            "target": target_load,
            "serving": sum(self.shards.values()),
            "deferred": self.deferred,
            "shards": len(self.shards),
            "pending": len(self.pending),
            "server_hours": billed * self.template.unit_cost_per_hour
            * dt / 3600.0,
            "violates": 1.0 if violates else 0.0,
            "max_staleness_p95_s": max(
                (s.staleness_p95_s for s in signals), default=0.0),
        }

    def _request(self, t: float, reason: str) -> None:
        site = f"fluid{self._site_counter}"
        self._site_counter += 1
        ready_at = t + self.template.provision_delay_s
        self.pending.append((ready_at, site))
        self.decisions.append(ScaleDecision(t, "request", site, reason))

    def _actuate(self, t: float, action) -> None:
        if action.kind in ("provision", "split"):
            for _ in range(action.count):
                if (len(self.shards) + len(self.pending)
                        >= self.config.max_shards):
                    break
                self._request(t, action.reason)
        elif action.kind == "merge":
            if len(self.shards) <= self.config.min_shards \
                    or action.site not in self.shards:
                return
            drained = self.shards.pop(action.site)
            self.decisions.append(
                ScaleDecision(t, "merge", action.site, f"drained {drained}"))
            self._admit(drained)
            self._rebalance_even()

    def run(
        self,
        load_fn,
        duration_s: float,
        dt_s: float,
    ) -> FleetResult:
        """Drive the fleet through ``load_fn(t) -> concurrent users``."""
        if duration_s <= 0 or dt_s <= 0:
            raise ValueError("duration and dt must be positive")
        bins: List[Dict[str, float]] = []
        steps = int(math.ceil(duration_s / dt_s))
        shard_bin_sum = 0.0
        peak_shards = 0
        peak_load = 0
        for index in range(steps):
            t = index * dt_s
            record = self.step(t, dt_s, int(load_fn(t)))
            bins.append(record)
            shard_bin_sum += record["shards"]
            peak_shards = max(peak_shards, int(record["shards"]))
            peak_load = max(peak_load, int(record["target"]))
        return FleetResult(
            server_hours=sum(b["server_hours"] for b in bins),
            slo_violation_minutes=sum(
                b["violates"] * dt_s / 60.0 for b in bins),
            deferred_user_minutes=sum(
                b["deferred"] * dt_s / 60.0 for b in bins),
            peak_shards=peak_shards,
            mean_shards=shard_bin_sum / max(1, len(bins)),
            peak_load=peak_load,
            decisions=list(self.decisions),
            bins=bins,
        )
