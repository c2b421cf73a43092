"""Elastic federation: provisioning and decommissioning shards mid-run.

The autoscaler's actuation surface — ``add_site`` must produce a shard
indistinguishable from a construction-time one (federated, armed for
the remaining horizon), ``decommission_site`` must refuse to strand
anyone, and owner codes must never be reused.
"""

import numpy as np
import pytest

from repro.cloud.regions import RegionalPlan
from repro.sensing.pose import Pose
from repro.simkit import Simulator
from repro.sync.federation import ShardedSyncService, ShardRelay
from repro.sync.interest import InterestConfig
from tests.oracles.traces import StationaryMotion

pytestmark = pytest.mark.federation

INTEREST = InterestConfig(radius_m=100.0, max_entities=32)


def _service(sim, n_users, sites):
    users = [f"u{i:02d}" for i in range(n_users)]
    plan = RegionalPlan(
        sites=list(sites),
        assignment={user: sites[i % len(sites)]
                    for i, user in enumerate(users)},
        rtts={user: 0.02 for user in users},
    )
    return ShardedSyncService(sim, plan, interest_config=INTEREST), users


def _attach(sim, service, user, duration):
    federated = service.add_client(user)
    index = int(user[1:])
    federated.client.local_pose = StationaryMotion(
        Pose(position=np.array([float(index), 0.0, 1.2])))
    federated.client.run(duration)
    return federated


def test_add_site_mid_run_federates_and_wind_down_together():
    duration = 5.0
    sim = Simulator(seed=3)
    service, users = _service(sim, 2, ["s0"])
    for user in users:
        _attach(sim, service, user, duration)
    service.start(duration)

    def grow():
        service.add_site("s1")
        service.move_user("u01", "s1")

    sim.call_later(2.0, grow)
    sim.run()

    # The run ended at the horizon even though s1 joined late: its tick
    # process armed for the remaining span only.
    assert sim.now == pytest.approx(duration)
    assert sorted(service.shards) == ["s0", "s1"]
    assert service.metrics.counter("sites_provisioned") == 1
    # The late shard actually federated: relays carried state both ways
    # and each client still sees the other's latest entity.
    stats = service.relay_stats()
    assert stats["s0->s1"]["deltas_sent"] > 0
    assert stats["s1->s0"]["deltas_sent"] > 0
    for user, other in (("u00", "u01"), ("u01", "u00")):
        states = service.clients[user].client.latest_states()
        assert other in states


def test_add_site_rejects_duplicates_and_never_reuses_codes():
    sim = Simulator(seed=4)
    service, _users = _service(sim, 2, ["s0", "s1"])
    with pytest.raises(ValueError):
        service.add_site("s0")
    code_s1 = service.site_codes["s1"]
    service.drain_site("s1")
    service.add_site("s2")
    assert service.site_codes["s2"] > code_s1
    assert service.site_codes["s2"] not in (
        service.site_codes["s0"], code_s1)


def test_decommission_refuses_homed_clients_and_last_site():
    duration = 2.0
    sim = Simulator(seed=5)
    service, users = _service(sim, 3, ["s0", "s1"])
    for user in users:
        _attach(sim, service, user, duration)
    with pytest.raises(ValueError, match="still serves"):
        service.decommission_site("s1")
    with pytest.raises(KeyError):
        service.decommission_site("nowhere")
    service.drain_site("s1")
    with pytest.raises(ValueError, match="last site"):
        service.decommission_site("s0")


def test_drain_site_moves_everyone_and_stops_relays():
    duration = 6.0
    sim = Simulator(seed=6)
    service, users = _service(sim, 4, ["s0", "s1"])
    clients = {user: _attach(sim, service, user, duration) for user in users}
    service.start(duration)

    def shrink():
        drained = service.drain_site("s1")
        assert drained == ["u01", "u03"]

    sim.call_later(2.0, shrink)
    sim.run()

    assert sorted(service.shards) == ["s0"]
    assert not any("s1" in key for key in service.relays)
    # Everyone single-homed on the survivor, still receiving snapshots
    # after the drain (make-before-break, no blackout path taken).
    for user, federated in clients.items():
        assert federated.home == "s0"
        assert user in service.shards["s0"]._subscribers
        assert federated.migratable.failovers == 0
    assert service.metrics.counter("sites_decommissioned") == 1
    # Plan routing follows: nothing assigned to the dead site.
    assert "s1" not in service.plan.assignment.values()
    assert "s1" not in service.plan.sites


def test_decommission_reroutes_unattached_plan_users():
    sim = Simulator(seed=7)
    service, users = _service(sim, 4, ["s0", "s1"])
    # Nobody ever attached: decommission may proceed and must re-route
    # the plan's s1 users to the survivor.
    service.decommission_site("s1")
    assert all(site == "s0" for site in service.home.values())
    assert all(site == "s0" for site in service.plan.assignment.values())


def test_server_stop_closes_the_window_gracefully():
    sim = Simulator(seed=8)
    service, users = _service(sim, 1, ["s0"])
    _attach(sim, service, users[0], 4.0)
    shard = service.shards["s0"]
    shard.run(duration=10.0)
    sim.call_later(3.0, shard.stop)
    sim.run()
    # The tick loop ended at the stop, not the horizon; state survives
    # (unlike crash) and a later run() can resume.
    assert not shard.crashed
    assert shard.n_subscribers == 1
    assert shard.tick_count > 0
    assert sim.now < 10.0
    shard.run(duration=1.0)  # no "already running" complaint
    sim.run()


# -- relay rounds --------------------------------------------------------------


def _record_rounds(monkeypatch, service):
    """Log ``(now, pair keys, keys of the deltas sent)`` for every relay
    round fired."""
    fired = []
    inner = ShardRelay.fire

    def fire(relay):
        keys = tuple((pair.src_site, pair.dst_site) for pair in relay.pairs)
        deltas = inner(relay) or []
        fired.append((service.sim.now, keys, [
            (delta.src_site, delta.dst_site) for delta in deltas]))
        return deltas or None

    monkeypatch.setattr(ShardRelay, "fire", fire)
    return fired


def _lone_every(sim, duration, period):
    """The instants a lone periodic process armed now would wake at."""
    instants = []

    def step():
        instants.append(sim.now)
        return period

    sim.every(duration, step)
    return instants


def test_mid_run_add_site_joins_each_sources_live_round(monkeypatch):
    duration, added_at = 2.0, 0.73
    sim = Simulator(seed=8)
    service, users = _service(sim, 3, ["s0", "s1", "s2"])
    for user in users:
        _attach(sim, service, user, duration)
    fired = _record_rounds(monkeypatch, service)
    service.start(duration)
    start_instants = _lone_every(sim, duration, service.relay_period)
    lone = {}

    def grow():
        service.add_site("s3")
        lone["add"] = _lone_every(sim, duration - sim.now,
                                  service.relay_period)

    sim.call_at(added_at, grow)
    sim.run()

    # One round per source: the newcomer's outgoing pairs are a round of
    # their own, and each old source's pair to it joined that source's
    # start() round in sorted order.
    sites = ["s0", "s1", "s2", "s3"]
    assert sorted(service.rounds) == sites
    assert {src: [(p.src_site, p.dst_site) for p in relay.pairs]
            for src, relay in service.rounds.items()} == {
        src: [(src, dst) for dst in sites if dst != src] for src in sites}
    instants = {}
    for now, keys, _sent in fired:
        src = keys[0][0]
        instants.setdefault(src, []).append(now)
        assert all(key[0] == src for key in keys)
        old = tuple((src, dst) for dst in sites[:3] if dst != src)
        if src == "s3":
            assert keys == (("s3", "s0"), ("s3", "s1"), ("s3", "s2"))
        else:
            assert keys == (old if now < added_at
                            else tuple(sorted(old + ((src, "s3"),))))
    # Old sources keep the bit-identical instants of a lone periodic
    # process armed at start(), so their pairs to s3 fire on that phase
    # from the first firing after the add; s3 fires on the add's phase.
    for src in sites[:3]:
        assert instants[src] == start_instants, src
    assert instants["s3"] == lone["add"]
    assert lone["add"][0] == added_at and len(lone["add"]) > 20
    assert any(now > added_at and ("s0", "s3") in sent
               for now, _keys, sent in fired)
    assert all(sent == sorted(sent) for _now, _keys, sent in fired)


def test_add_site_before_start_joins_its_sources_rounds(monkeypatch):
    sim = Simulator(seed=9)
    service, users = _service(sim, 3, ["s0", "s1"])
    for user in users:
        _attach(sim, service, user, 1.0)
    service.add_site("s2")
    fired = _record_rounds(monkeypatch, service)
    service.start(1.0)
    sim.run()
    expected = [
        (("s0", "s1"), ("s0", "s2")),
        (("s1", "s0"), ("s1", "s2")),
        (("s2", "s0"), ("s2", "s1")),
    ]
    assert sorted({keys for _now, keys, _sent in fired}) == expected
    assert [tuple((pair.src_site, pair.dst_site) for pair in relay.pairs)
            for relay in service.rounds.values()] == expected
    # A round sends in its pairs' sorted order, as per-pair relays fired.
    assert all(sent == sorted(sent) for _now, _keys, sent in fired)
    assert any(len(sent) == 2 for _now, _keys, sent in fired)


def test_add_drain_cycles_keep_relay_state_bounded():
    duration, second = 6.0, 2.0
    sim = Simulator(seed=10)
    service, users = _service(sim, 4, ["s0", "s1"])
    for user in users:
        _attach(sim, service, user, duration + second)
    service.start(duration)
    checks = []

    def check(gone):
        live = set(service.shards)
        assert gone not in service.relay_encoders
        for relay in service.rounds.values():
            assert relay.pairs
            for pair in relay.pairs:
                assert {pair.src_site, pair.dst_site} <= live
        for src, encoder in service.relay_encoders.items():
            # A drained destination's row is forgotten: live rows never
            # outnumber the source's live destinations.
            assert set(encoder._row_of) <= live - {src}
            assert len(encoder._row_of) <= len(live) - 1
        checks.append((len(service.rounds), len(service.shards)))

    def grow(site, user):
        service.add_site(site)
        service.move_user(user, site)
        checks.append((len(service.rounds), len(service.shards)))

    def drain(site):
        # Both directions fired while the site lived: its pairs joined
        # live rounds, never ones left over from a finished window.
        stats = service.relay_stats()
        assert stats[f"s0->{site}"]["deltas_sent"] > 0
        assert stats[f"{site}->s0"]["deltas_sent"] > 0
        service.drain_site(site)
        check(site)

    def cycles(first, count):
        for cycle in range(first, first + count):
            site, at = f"x{cycle}", sim.now + 0.5 + cycle - first
            sim.call_at(at, lambda site=site, user=users[cycle % 4]:
                        grow(site, user))
            sim.call_at(at + 0.5, lambda site=site: drain(site))

    cycles(0, 4)
    sim.run()
    # A second window re-arms every source; adds join its rounds.
    service.start(second)
    cycles(4, 1)
    sim.run()
    # Each cycle's round went with its site: one round per source.
    assert checks == [(3, 3), (2, 2)] * 5
    stats = service.relay_stats()
    assert sorted(stats) == ["s0->s1", "s1->s0"]
    assert all(s["deltas_sent"] > 0 for s in stats.values())


def test_round_with_every_pair_stopped_ends_its_process():
    duration = 3.0
    sim = Simulator(seed=11)
    service, users = _service(sim, 3, ["s0", "s1", "s2"])
    for user in users:
        _attach(sim, service, user, duration)
    processes = service.start(duration)
    rounds = dict(zip(["s0", "s1", "s2"], processes[3:]))
    drained_at = 1.0
    sim.call_at(drained_at, lambda: service.drain_site("s2"))
    sim.run(until=drained_at + 2 * service.relay_period)
    assert not rounds["s2"].is_alive
    assert rounds["s0"].is_alive and rounds["s1"].is_alive
    assert [[(p.src_site, p.dst_site) for p in relay.pairs]
            for relay in service.rounds.values()] == [[("s0", "s1")], [("s1", "s0")]]
