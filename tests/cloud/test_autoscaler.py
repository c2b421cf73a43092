"""Closed-loop autoscaler tests: pure planner policy and the live loop.

The planner's determinism contract (identical signal sequences produce
identical action streams) is what lets the C3g benchmark claim its
10^5-10^6-user runs exercise the very policy pinned here.
"""

import numpy as np
import pytest

from repro.cloud.autoscaler import (
    SHARD_TEMPLATES,
    AutoscalePlanner,
    AutoscalerConfig,
    ShardAutoscaler,
    ShardSignals,
    ShardTemplate,
    score_sites,
)
from repro.cloud.regions import RegionalPlan
from repro.sensing.pose import Pose
from repro.simkit import Simulator
from repro.sync.federation import ShardedSyncService
from repro.sync.interest import InterestConfig
from repro.sync.server import ServerCostModel
from repro.workload.arrival import ClassScheduleForecast
from tests.oracles.traces import StationaryMotion

pytestmark = pytest.mark.autoscale


def _signal(site, subscribers=10, util=0.5, stale=0.05):
    return ShardSignals(site=site, subscribers=subscribers,
                        tick_utilization=util, staleness_p95_s=stale,
                        egress_bytes_per_s=0.0)


TEMPLATE = ShardTemplate("test.s", capacity=100, provision_delay_s=1.0)


# -- pure planner ------------------------------------------------------------


def test_planner_split_needs_full_breach_streak():
    planner = AutoscalePlanner(TEMPLATE, AutoscalerConfig(breach_polls=2))
    assert planner.decide(0.0, [_signal("a", util=0.95)]) == []
    actions = planner.decide(0.5, [_signal("a", util=0.95)])
    assert [a.kind for a in actions] == ["split"]
    assert actions[0].site == "a"


def test_planner_staleness_breach_also_splits():
    planner = AutoscalePlanner(TEMPLATE, AutoscalerConfig(
        breach_polls=1, staleness_budget_s=0.120))
    actions = planner.decide(0.0, [_signal("a", util=0.4, stale=0.4)])
    assert [a.kind for a in actions] == ["split"]


def test_planner_cooldown_silences_following_rounds():
    config = AutoscalerConfig(breach_polls=1, cooldown_s=5.0)
    planner = AutoscalePlanner(TEMPLATE, config)
    assert planner.decide(0.0, [_signal("a", util=0.95)])
    assert planner.decide(1.0, [_signal("a", util=0.95)]) == []
    assert planner.decide(6.0, [_signal("a", util=0.95)])


def test_planner_streak_resets_on_recovery():
    planner = AutoscalePlanner(TEMPLATE, AutoscalerConfig(breach_polls=2))
    planner.decide(0.0, [_signal("a", util=0.95)])
    planner.decide(0.5, [_signal("a", util=0.5)])  # recovered
    assert planner.decide(1.0, [_signal("a", util=0.95)]) == []


def test_planner_merge_requires_fit_and_streak():
    config = AutoscalerConfig(clear_polls=2, cooldown_s=0.0,
                              merge_target_fill=0.6)
    planner = AutoscalePlanner(TEMPLATE, config)
    # Two shards, 30 users total: survivors' fill 0.30 <= 0.6 -> merge
    # the emptier one, but only after the full cold streak.
    cold = [_signal("a", subscribers=20, util=0.1),
            _signal("b", subscribers=10, util=0.1)]
    assert planner.decide(0.0, cold) == []
    actions = planner.decide(1.0, cold)
    assert [(a.kind, a.site) for a in actions] == [("merge", "b")]


def test_planner_merge_blocked_when_survivors_would_overfill():
    config = AutoscalerConfig(clear_polls=1, merge_target_fill=0.6)
    planner = AutoscalePlanner(TEMPLATE, config)
    # 90 users over two shards: survivors' fill 0.90 > 0.6 -> no merge
    # even though both shards read cold on utilization.
    cold = [_signal("a", subscribers=45, util=0.2),
            _signal("b", subscribers=45, util=0.2)]
    assert planner.decide(0.0, cold) == []


def test_planner_respects_min_and_max_shards():
    config = AutoscalerConfig(breach_polls=1, clear_polls=1, min_shards=1,
                              max_shards=1, cooldown_s=0.0)
    planner = AutoscalePlanner(TEMPLATE, config)
    assert planner.decide(0.0, [_signal("a", util=2.0)]) == []
    assert planner.decide(1.0, [_signal("a", subscribers=0, util=0.0)]) == []


def test_planner_prewarms_from_forecast():
    forecast = ClassScheduleForecast([(100.0, 300)], burst_fraction=1.0,
                                     burst_window=50.0)
    config = AutoscalerConfig(breach_polls=1, prewarm_lead_s=60.0,
                              target_fill=1.0, max_shards=8)
    planner = AutoscalePlanner(TEMPLATE, config, forecast=forecast)
    # Far from the class: nothing.
    assert planner.decide(0.0, [_signal("a", subscribers=0, util=0.1)]) == []
    # The lead window sees the whole 300-join burst: provision for it.
    actions = planner.decide(99.0, [_signal("a", subscribers=0, util=0.1)])
    assert [a.kind for a in actions] == ["provision"]
    assert actions[0].count == 2  # ceil(300/100) shards minus the one live
    # Capacity already pending is not re-requested.
    planner2 = AutoscalePlanner(TEMPLATE, config, forecast=forecast)
    assert planner2.decide(
        99.0, [_signal("a", subscribers=0, util=0.1)], pending=2) == []


def test_planner_determinism_and_site_order_independence():
    def drive(order):
        planner = AutoscalePlanner(
            TEMPLATE, AutoscalerConfig(breach_polls=2, cooldown_s=0.0))
        log = []
        for t in (0.0, 0.5, 1.0, 1.5):
            signals = [_signal("a", util=0.95), _signal("b", util=0.2)]
            if order == "reversed":
                signals = signals[::-1]
            log.append(planner.decide(t, signals))
        return repr(log)

    assert drive("forward") == drive("reversed")


def test_template_catalogue_and_validation():
    assert SHARD_TEMPLATES["edu.m"].capacity == 60_000
    small, large = SHARD_TEMPLATES["edu.s"], SHARD_TEMPLATES["edu.l"]
    # Bigger SKUs buy a better per-seat price.
    assert (large.unit_cost_per_hour / large.capacity
            < small.unit_cost_per_hour / small.capacity)
    with pytest.raises(ValueError):
        ShardTemplate("bad", capacity=0)
    with pytest.raises(ValueError):
        ShardTemplate("bad", capacity=10, unit_cost_per_hour=0.0)
    with pytest.raises(ValueError):
        AutoscalerConfig(merge_utilization=0.9, split_utilization=0.8)
    with pytest.raises(ValueError):
        AutoscalerConfig(min_shards=3, max_shards=2)


def test_score_sites_orders_by_mean_delay_then_name():
    delays = {("u", "far"): 0.2, ("u", "near"): 0.01, ("u", "tie"): 0.01}
    ranked = score_sites(["far", "near", "tie"], ["u"],
                         lambda user, site: delays[(user, site)])
    assert [site for _score, site in ranked] == ["near", "tie", "far"]
    # No users to relieve: name order is the tiebreak.
    assert [s for _score, s in score_sites(["b", "a"], [], None)] == ["a", "b"]


# -- the live loop -----------------------------------------------------------

#: Serialization priced so ~8 all-seeing clients saturate a 20 Hz tick
#: (8 subscribers x 7 visible neighbours x 1 ms/state ~ 56 ms > 50 ms),
#: while a 4/4 split runs at ~25% utilization.
HOT_COST = ServerCostModel(base=2e-4, per_update=2e-6,
                           per_entity_scan=4e-8, per_state_sent=1e-3)
INTEREST = InterestConfig(radius_m=100.0, max_entities=32)


def _live_service(sim, n_users, capacity, sites=("s0",), cost=HOT_COST,
                  duration=6.0):
    users = [f"u{i:02d}" for i in range(n_users)]
    plan = RegionalPlan(
        sites=list(sites),
        assignment={},
        rtts={},
    )
    service = ShardedSyncService(sim, plan, interest_config=INTEREST,
                                 cost_model=cost)

    def attach(user_id, site):
        federated = service.add_client(user_id)
        index = int(user_id[1:])
        federated.client.local_pose = StationaryMotion(
            Pose(position=np.array([float(index), 0.0, 1.2])))
        federated.client.run(max(0.1, duration - sim.now))

    return service, users, attach


def test_live_split_relieves_a_hot_shard():
    duration = 6.0
    sim = Simulator(seed=9)
    service, users, attach = _live_service(sim, 8, capacity=8,
                                           duration=duration)
    template = ShardTemplate("test.xs", capacity=8, provision_delay_s=0.2)
    config = AutoscalerConfig(
        poll_period_s=0.25, breach_polls=2, clear_polls=8, cooldown_s=1.0,
        max_shards=4, admission_fill=1.0, staleness_budget_s=10.0)
    autoscaler = ShardAutoscaler(sim, service, template, config,
                                 site_pool=["s1", "s2"], attach=attach)
    for user in users:
        assert autoscaler.request_join(user) is True
    service.start(duration)
    autoscaler.run(duration)
    sim.run()

    assert sorted(service.shards) == ["s0", "s1"]
    sizes = sorted(shard.n_subscribers for shard in service.shards.values())
    assert sizes == [4, 4]
    kinds = [d.action for d in autoscaler.decisions]
    assert "request" in kinds and "provision" in kinds and "split" in kinds
    # Every client single-homed: subscribed to exactly one shard.
    for user in users:
        homes = [site for site, shard in service.shards.items()
                 if user in shard._subscribers]
        assert len(homes) == 1
        assert homes[0] == service.clients[user].home
    # The split actually relieved the hot shard: post-split windowed
    # utilization sits far below the breach threshold.
    final = {s.site: s for s in autoscaler.signals()}
    assert all(s.tick_utilization < config.split_utilization
               for s in final.values())


def test_live_merge_drains_a_cold_shard():
    duration = 6.0
    sim = Simulator(seed=10)
    service, users, attach = _live_service(
        sim, 4, capacity=16, sites=("s0", "s1"),
        cost=ServerCostModel.vectorized(), duration=duration)
    # Pre-place three users on s0 and one straggler on s1: the emptier
    # shard is the unambiguous merge victim.
    for index, user in enumerate(users):
        service.plan.assignment[user] = "s1" if index == 3 else "s0"
        service.home[user] = service.plan.assignment[user]
        service.plan.rtts[user] = 0.02
        attach(user, service.home[user])
    template = ShardTemplate("test.xs", capacity=16, provision_delay_s=0.2)
    config = AutoscalerConfig(
        poll_period_s=0.25, breach_polls=8, clear_polls=3, cooldown_s=1.0,
        merge_target_fill=0.6, staleness_budget_s=10.0)
    autoscaler = ShardAutoscaler(sim, service, template, config,
                                 site_pool=[], attach=attach)
    service.start(duration)
    autoscaler.run(duration)
    sim.run()

    assert sorted(service.shards) == ["s0"]
    assert service.shards["s0"].n_subscribers == 4
    assert all(f.home == "s0" for f in service.clients.values())
    merges = [d for d in autoscaler.decisions if d.action == "merge"]
    assert len(merges) == 1
    assert service.metrics.counter("sites_decommissioned") == 1
    # Make-before-break: drained clients kept their versioned streams
    # (the service records them as voluntary handoffs, not failovers).
    assert service.metrics.counter("handoffs_voluntary") >= 1
    assert all(f.migratable.failovers == 0
               for f in service.clients.values())


def test_live_admission_defers_flash_crowd_then_drains():
    duration = 6.0
    sim = Simulator(seed=11)
    service, users, attach = _live_service(
        sim, 10, capacity=4, cost=ServerCostModel.vectorized(),
        duration=duration)
    template = ShardTemplate("test.xs", capacity=4, provision_delay_s=0.3)
    config = AutoscalerConfig(
        poll_period_s=0.25, breach_polls=4, clear_polls=20, cooldown_s=0.5,
        max_shards=2, admission_fill=1.0, staleness_budget_s=10.0)
    autoscaler = ShardAutoscaler(sim, service, template, config,
                                 site_pool=["s1"], attach=attach)
    admitted_now = [autoscaler.request_join(user) for user in users]
    assert admitted_now.count(True) == 4   # one shard's worth
    assert admitted_now.count(False) == 6  # the rest queue
    service.start(duration)
    autoscaler.run(duration)
    sim.run()

    # Capacity landed (admission backlog provisioned s1) and the queue
    # drained into it, up to the 2-shard fleet's capacity.
    assert sorted(service.shards) == ["s0", "s1"]
    assert len(service.clients) == 8
    assert len(autoscaler.deferred) == 2  # max_shards capped the fleet
    kinds = [d.action for d in autoscaler.decisions]
    assert kinds.count("defer") == 6
    assert kinds.count("admit") == 10 - len(autoscaler.deferred)
    backlog = [d for d in autoscaler.decisions
               if d.action == "request" and "backlog" in d.detail]
    assert len(backlog) == 1


def _replay_live_run(seed):
    duration = 6.0
    sim = Simulator(seed=seed)
    service, users, attach = _live_service(sim, 8, capacity=8,
                                           duration=duration)
    template = ShardTemplate("test.xs", capacity=8, provision_delay_s=0.2)
    config = AutoscalerConfig(
        poll_period_s=0.25, breach_polls=2, clear_polls=8, cooldown_s=1.0,
        max_shards=4, admission_fill=1.0, staleness_budget_s=10.0)
    autoscaler = ShardAutoscaler(sim, service, template, config,
                                 site_pool=["s1", "s2"], attach=attach)
    for user in users:
        autoscaler.request_join(user)
    service.start(duration)
    autoscaler.run(duration)
    sim.run()
    homes = {user: fed.home for user, fed in sorted(service.clients.items())}
    return autoscaler.fingerprint(), repr(homes)


def test_live_control_decisions_replay_byte_identical():
    assert _replay_live_run(21) == _replay_live_run(21)
