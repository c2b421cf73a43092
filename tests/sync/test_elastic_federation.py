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
from repro.sync.federation import ShardedSyncService
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
        yield sim.timeout(2.0)
        service.add_site("s1")
        service.move_user("u01", "s1")

    sim.process(grow())
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
        yield sim.timeout(2.0)
        drained = service.drain_site("s1")
        assert drained == ["u01", "u03"]

    sim.process(shrink())
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
