"""Unit tests for regional planning and the cloud classroom server."""

import numpy as np
import pytest

from repro.cloud.regions import RegionalPlan, plan_regions, single_server_plan
from repro.cloud.server import CloudClassroomServer
from repro.simkit import Simulator
from repro.sync.client import SyncClient
from repro.workload.population import sample_worldwide
from repro.workload.traces import SeatedMotion


def test_regional_servers_cut_tail_latency():
    """C3b shape: k regional servers collapse the worldwide RTT tail."""
    population = sample_worldwide(400, np.random.default_rng(0))
    single = single_server_plan(population, site="hkust_cwb")
    regional = plan_regions(population, k=4)
    assert regional.mean_rtt() < single.mean_rtt()
    assert regional.p95_rtt() < single.p95_rtt() * 0.7
    # The paper's pain point: with one server, a big slice of the world
    # sits above 100 ms RTT; regional servers fix most of it.
    assert single.fraction_above(0.100) > 0.2
    assert regional.fraction_above(0.100) < single.fraction_above(0.100)


def test_more_regions_monotone_improvement():
    population = sample_worldwide(200, np.random.default_rng(1))
    means = [plan_regions(population, k=k).mean_rtt() for k in (1, 2, 4, 8)]
    assert all(a >= b - 1e-12 for a, b in zip(means, means[1:]))


def test_region_plan_assigns_every_user():
    population = sample_worldwide(100, np.random.default_rng(2))
    plan = plan_regions(population, k=3)
    assert len(plan.assignment) == 100
    assert set(plan.assignment.values()) <= set(plan.sites)
    assert len(plan.sites) == 3


def test_region_plan_validation():
    population = sample_worldwide(10, np.random.default_rng(3))
    with pytest.raises(ValueError):
        plan_regions(population, k=0)
    with pytest.raises(ValueError):
        plan_regions(population, k=100)
    from repro.workload.population import RemotePopulation
    with pytest.raises(ValueError):
        plan_regions(RemotePopulation(users=[]), k=1)


def test_empty_plan_stats_are_well_defined():
    """Regression: zero-user plans gave NaN means and IndexError p95s."""
    plan = RegionalPlan(sites=["tokyo"])
    with pytest.raises(ValueError, match="mean_rtt"):
        plan.mean_rtt()
    with pytest.raises(ValueError, match="p95_rtt"):
        plan.p95_rtt()
    # Zero of zero users exceed any threshold — a fraction, not NaN.
    assert plan.fraction_above(0.100) == 0.0


def test_single_user_plan_stats():
    plan = RegionalPlan(sites=["tokyo"],
                        assignment={"u": "tokyo"}, rtts={"u": 0.08})
    assert plan.mean_rtt() == pytest.approx(0.08)
    assert plan.p95_rtt() == pytest.approx(0.08)
    assert plan.fraction_above(0.100) == 0.0
    assert plan.fraction_above(0.050) == 1.0


def test_cloud_server_seats_remote_users():
    sim = Simulator(seed=4)
    cloud = CloudClassroomServer(sim, tick_rate_hz=20.0)

    received = {"alice": [], "bob": []}
    pose_a = cloud.connect("alice", lambda s: received["alice"].append(s))
    pose_b = cloud.connect("bob", lambda s: received["bob"].append(s))
    assert np.linalg.norm(pose_a.position - pose_b.position) > 0.1

    clients = {}
    for cid in ("alice", "bob"):
        trace = SeatedMotion((0.0, 0.0, 1.2), sim.rng.stream(cid))
        client = SyncClient(
            sim, cid,
            transmit=lambda u: sim.call_later(0.02, lambda u=u: cloud.ingest_update(u)),
        )
        client.local_pose = trace
        clients[cid] = client

    cloud.run(duration=4.0)
    for client in clients.values():
        client.run(duration=4.0)
    for cid, client in clients.items():
        # Route snapshots back into the client with the same delay.
        cloud.sync.subscribe(
            cid, lambda snap, c=client: sim.call_later(0.02, lambda: c.on_snapshot(snap))
        )
    sim.run()
    assert "bob" in clients["alice"].known_entities
    # Bob's replica sits near bob's *seat* (seat rebasing applied).
    bob_state = clients["alice"].remote_states()["bob"]
    assert np.linalg.norm(bob_state.pose.position - pose_b.position) < 2.0


def test_cloud_server_instructor_on_stage():
    sim = Simulator(seed=5)
    cloud = CloudClassroomServer(sim)
    pose = cloud.connect("prof", lambda s: None, role="instructor")
    assert np.linalg.norm(pose.position) < 1.0


def test_cloud_server_ingests_edge_states():
    sim = Simulator(seed=6)
    cloud = CloudClassroomServer(sim)
    from repro.avatar.state import AvatarState
    from repro.sensing.pose import Pose
    cloud.ingest_edge_state(AvatarState("hk-student", sim.now, Pose()))
    assert cloud.edge_states_ingested == 1
    # Second ingest keeps the same seat.
    cloud.ingest_edge_state(AvatarState("hk-student", sim.now, Pose(), seq=1))
    assert cloud.layout.seated_count == 1


def test_cloud_server_measurement_passthrough():
    sim = Simulator(seed=9)
    cloud = CloudClassroomServer(sim, tick_rate_hz=20.0)
    cloud.connect("solo", lambda s: None)
    cloud.run(duration=2.0)
    sim.run(until=2.0)
    assert cloud.achieved_tick_rate() == pytest.approx(20.0, rel=0.1)
    assert cloud.achieved_tick_rate(2.0) == cloud.sync.achieved_tick_rate(2.0)
    assert cloud.egress_bytes_per_client_s() >= 0.0
    with pytest.raises(ValueError):
        cloud.egress_bytes_per_client_s(0.0)
    assert cloud.metrics is cloud.sync.metrics


# -- outage re-planning (fault-injection PR) ----------------------------------


@pytest.mark.faults
def test_reassign_after_outage_moves_only_the_dead_sites_users():
    from repro.cloud.regions import reassign_after_outage

    population = sample_worldwide(300, np.random.default_rng(5))
    plan = plan_regions(population, k=4)
    dead = plan.sites[0]
    survivors = set(plan.sites) - {dead}
    new_plan = reassign_after_outage(plan, dead, population)

    assert set(new_plan.sites) == survivors
    assert len(new_plan.assignment) == len(plan.assignment)
    moved = 0
    for user_id, site in plan.assignment.items():
        if site == dead:
            moved += 1
            assert new_plan.assignment[user_id] in survivors
        else:
            # Healthy sessions are untouched: same site, same RTT.
            assert new_plan.assignment[user_id] == site
            assert new_plan.rtts[user_id] == plan.rtts[user_id]
    assert moved > 0
    # Failing over to a farther site can only cost latency.
    assert new_plan.mean_rtt() >= plan.mean_rtt() - 1e-12


@pytest.mark.faults
def test_reassign_after_outage_validation():
    from repro.cloud.regions import reassign_after_outage

    population = sample_worldwide(50, np.random.default_rng(6))
    plan = plan_regions(population, k=2)
    with pytest.raises(ValueError):
        reassign_after_outage(plan, "atlantis", population)
    solo = single_server_plan(population)
    with pytest.raises(ValueError):
        reassign_after_outage(solo, solo.sites[0], population)


@pytest.mark.faults
def test_plan_regions_exclude_plans_around_dead_site():
    population = sample_worldwide(200, np.random.default_rng(7))
    full = plan_regions(population, k=3)
    dead = full.sites[0]
    replanned = plan_regions(population, k=3, exclude=(dead,))
    assert dead not in replanned.sites
    assert len(replanned.sites) == 3
    with pytest.raises(ValueError):
        plan_regions(population, k=1,
                     candidates=("tokyo",), exclude=("tokyo",))
