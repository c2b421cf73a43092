"""Regression: ``rebalance(exclude=)`` interleaved with in-flight moves.

A voluntary ``move_user`` whose first keyframe is still in flight when a
placement rebalance re-migrates the fleet must not leave anyone
double-homed (subscribed on two shards) or orphaned (subscribed on
none), and the moved client's ``(epoch, seq)`` stream must keep
advancing through both handoffs — other clients see its post-move
updates, not a stale ghost.
"""

import numpy as np
import pytest

from repro.cloud.regions import plan_regions
from repro.sensing.pose import Pose
from repro.simkit import Simulator
from repro.sync.federation import ShardedSyncService
from repro.sync.interest import InterestConfig
from repro.workload.population import sample_worldwide
from tests.oracles.traces import StationaryMotion

pytestmark = pytest.mark.federation

DURATION = 8.0
CHAOS_AT = 3.0


def _run(seed):
    population = sample_worldwide(10, np.random.default_rng(seed))
    sim = Simulator(seed=seed)
    plan = plan_regions(population, k=3)
    service = ShardedSyncService(
        sim, plan, population,
        interest_config=InterestConfig(radius_m=50.0, max_entities=16))
    for index, user in enumerate(sorted(population.users,
                                        key=lambda u: u.user_id)):
        federated = service.add_client(user.user_id)
        federated.client.local_pose = StationaryMotion(
            Pose(position=np.array([float(index), 0.0, 1.2])))
        federated.client.run(DURATION)
    service.start(DURATION)

    log = {}

    def chaos():
        mover = sorted(service.clients)[0]
        home = service.clients[mover].home
        target = next(s for s in sorted(service.shards) if s != home)
        excluded = next(
            s for s in sorted(service.shards) if s not in (home, target))
        # Kick off a voluntary move; its first keyframe is in flight ...
        service.move_user(mover, target)
        # ... when the placement rebalance re-migrates the whole fleet
        # around the excluded site, in the same simulated instant.
        service.rebalance(exclude=(excluded,))
        log["mover"], log["excluded"] = mover, excluded

    sim.call_later(CHAOS_AT, chaos)
    sim.run()
    return service, log


def test_interleaved_rebalance_leaves_no_double_homes_or_orphans():
    service, log = _run(17)
    for user, federated in service.clients.items():
        subscribed = [
            site for site, shard in service.shards.items()
            if user in shard._subscribers
        ]
        assert len(subscribed) == 1, f"{user} subscribed on {subscribed}"
        assert subscribed[0] == federated.home
        assert federated.home == service.plan.assignment[user]
        assert federated.home != log["excluded"]
        # Voluntary paths only: nobody fell back to crash failover.
        assert federated.migratable.failovers == 0


def test_interleaved_rebalance_keeps_version_stream_alive():
    service, log = _run(17)
    mover = log["mover"]
    # The mover kept publishing through both handoffs: every client that
    # sees it (including itself) holds a state sequenced well past the
    # chaos point, with the original epoch — no rejoin was needed.
    chaos_seq = CHAOS_AT * 20.0  # 20 Hz publisher
    seen = 0
    for user, federated in service.clients.items():
        state = federated.client.latest_states().get(mover)
        if state is None:
            continue
        seen += 1
        assert state.epoch == 0
        assert state.seq > chaos_seq * 1.5
    assert seen > 0
    # And the mover still receives the world: snapshots kept arriving
    # after the double handoff.
    snaps = service.clients[mover].client.snapshot_latency.samples
    assert len(snaps) > DURATION * 0.8 * 20.0 * 0.5


def test_interleaved_rebalance_replays_byte_identical():
    def fingerprint():
        service, log = _run(23)
        homes = {u: f.home for u, f in sorted(service.clients.items())}
        seqs = {
            u: {e: s.seq for e, s in
                sorted(f.client.latest_states().items())}
            for u, f in sorted(service.clients.items())
        }
        return repr((log, homes, seqs,
                     service.metrics.counter("handoffs_voluntary")))

    assert fingerprint() == fingerprint()
