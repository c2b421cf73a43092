"""The server tick's interest reuse against a fresh query, tick by tick.

``InterestManager.relevant_slots`` keeps each subscriber's row from the
previous tick unless an entity written since could have entered, left or
reordered it.  Every answer must equal, as a set, what a fresh
``relevant_indices_batch`` over the same world returns, and the pairs it
charges must be the fresh query's ``last_pairs_scanned`` — the cost model
(and so simulated time) must not see the reuse.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.avatar.state import AvatarState
from repro.sensing.pose import Pose
from repro.simkit import Simulator
from repro.sync.federation import ShardedSyncService
from repro.sync.interest import (
    BroadcastInterest,
    InterestConfig,
    InterestManager,
)
from repro.sync.protocol import ClientUpdate
from repro.sync.server import SyncServer
from repro.workload.traces import WalkingMotion
from tests.oracles.traces import StationaryMotion
from tests.sync.test_federation import _virtual_plan

pytestmark = pytest.mark.vectorized


def _fresh(manager, world, subscriber_ids):
    """A fresh query's rows (as world-slot sets) and its pair count."""
    _ids, slots, points = world.compact()
    compact_of = {slot: i for i, slot in enumerate(slots.tolist())}
    self_rows = np.asarray([
        compact_of[world.slot_of(sub)] if sub in world else -1
        for sub in subscriber_ids], dtype=np.int64)
    subject_points = np.zeros((len(subscriber_ids), 3))
    subject_points[self_rows >= 0] = points[self_rows[self_rows >= 0]]
    fresh = type(manager)()
    fresh.config = manager.config
    offsets, flat = fresh.relevant_indices_batch(
        points, subject_points, self_rows, world.lexicographic_ranks())
    rows = [set(slots[flat[offsets[i]:offsets[i + 1]]].tolist())
            for i in range(len(subscriber_ids))]
    return rows, fresh.last_pairs_scanned


class Checked:
    """Wraps a manager's ``relevant_slots``: every answer is compared with
    a fresh query on the spot, and reuse is tallied."""

    def __init__(self, manager):
        self.manager = manager
        self.calls = 0
        self.reused_all = 0    # calls where no row was recomputed
        self.pairs = []        # charged pairs, one per call
        inner = manager.relevant_slots

        def check(world, subscriber_ids):
            offsets, flat, pairs = inner(world, subscriber_ids)
            expected, fresh_pairs = _fresh(manager, world, subscriber_ids)
            assert len(offsets) == len(subscriber_ids) + 1
            for i, sub in enumerate(subscriber_ids):
                row = flat[offsets[i]:offsets[i + 1]]
                assert np.all(np.diff(row) > 0), (sub, row)
                assert set(row.tolist()) == expected[i], (self.calls, sub)
            assert pairs == fresh_pairs, self.calls
            self.calls += 1
            self.pairs.append(pairs)
            if subscriber_ids and len(world) \
                    and manager.last_pairs_scanned == 0 and fresh_pairs:
                self.reused_all += 1
            return offsets, flat, pairs

        manager.relevant_slots = check


def _state(entity_id, t, position, seq, epoch=0):
    return AvatarState(entity_id, t, Pose(position=np.asarray(
        position, dtype=float)), seq=seq, epoch=epoch)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    lattice=st.booleans(),
    move_p=st.sampled_from([0.05, 0.3]),
)
def test_reused_rows_equal_a_fresh_query_every_tick(seed, lattice, move_p):
    """Mostly-still and churning worlds (lattice positions make exact
    distance ties common), joins and leaves with slot reuse, avatars
    removed under a subscriber that stays and a spectator that gains one,
    writes applied outside the tick, decimation, crash/restart and quiet
    ticks: after every tick each row equals a fresh query's, and the
    tick's ``interest_pairs_scanned`` increment is the fresh count."""
    rng = np.random.default_rng(seed)
    config = InterestConfig(
        radius_m=float(rng.integers(2, 6)),
        max_entities=int(rng.integers(1, 7)))
    server = SyncServer(Simulator(seed=seed), interest=InterestManager(config))
    checked = Checked(server.interest)
    n = int(rng.integers(6, 24))
    ids = [f"e{i}" for i in range(n)]
    seqs = {entity_id: 0 for entity_id in ids + ["spectator"]}
    extent = float(rng.integers(4, 12))

    def position():
        if lattice:
            return rng.integers(0, int(extent), size=3).astype(float)
        return rng.uniform(0.0, extent, size=3)

    def publish(entity_id, t):
        seqs[entity_id] += 1
        server.ingest(ClientUpdate(entity_id, _state(
            entity_id, t, position(), seqs[entity_id]), seqs[entity_id]))

    def join(entity_id, t):
        server.subscribe(entity_id, lambda snapshot: None)
        publish(entity_id, t)

    for entity_id in ids:
        join(entity_id, 0.0)
    server.subscribe("spectator", lambda snapshot: None)
    server.tick_once()
    for tick in range(1, 16):
        t = float(tick)
        roll = rng.random()
        if roll < 0.1:                           # crash and come back
            server.crash()
            server.restart()
            server.subscribe("spectator", lambda snapshot: None)
            for entity_id in ids:
                join(entity_id, t)
        elif roll < 0.25:                        # quiet tick
            pass
        else:
            for entity_id in ids:
                if entity_id not in server.world:
                    if rng.random() < 0.5:       # rejoin (slot reuse)
                        join(entity_id, t)
                elif rng.random() < move_p:
                    publish(entity_id, t)
                elif rng.random() < 0.04:
                    server.unsubscribe(entity_id)
                elif rng.random() < 0.03:        # the subscriber stays
                    server.world.remove(entity_id)
            if rng.random() < 0.1:
                publish("spectator", t)          # gains (or moves) an avatar
            if rng.random() < 0.3:               # a write outside the tick
                entity_id = ids[int(rng.integers(n))]
                if entity_id in server.world:
                    seqs[entity_id] += 1
                    server.world.apply(_state(
                        entity_id, t, position(), seqs[entity_id]))
            if rng.random() < 0.3:
                server.set_snapshot_decimation(
                    ids[int(rng.integers(n))], int(rng.integers(1, 4)))
        before = server.metrics.counter("interest_pairs_scanned")
        calls = checked.calls
        server.tick_once()
        assert checked.calls == calls + 1
        assert server.metrics.counter("interest_pairs_scanned") - before \
            == checked.pairs[-1]
    # A tick with no write since the last one recomputes nothing.
    for entity_id in ids:
        server.set_snapshot_decimation(entity_id, 1)
        if entity_id not in server.world:
            join(entity_id, 16.0)
    server.tick_once()
    reused_all = checked.reused_all
    server.tick_once()
    assert checked.reused_all == reused_all + 1


def test_federated_shards_with_moves_and_a_crash_match_fresh_queries():
    """Ghost states written by relays between ticks, ``move_user``
    handoffs and a shard crash: every shard's every answer equals a
    fresh query, and the walkers keep at least some rows reused."""
    sim = Simulator(seed=11)
    plan, users = _virtual_plan(9, 3)
    service = ShardedSyncService(
        sim, plan, relay_rate_hz=50.0,
        interest_config=InterestConfig(radius_m=2.5, max_entities=3))
    checks = [Checked(shard.interest) for shard in service.shards.values()]
    for index, user in enumerate(users):
        federated = service.add_client(user)
        start = np.array([float(index % 3), float(index // 3), 1.2])
        federated.client.local_pose = WalkingMotion(
            [start, start + [2.0, 0.0, 0.0]], speed_m_per_s=0.5) \
            if index % 4 == 0 else StationaryMotion(Pose(position=start))
        federated.client.run(3.0)
    service.start(3.0)
    sim.call_at(0.8, lambda: service.move_user(users[1], "s2"))
    sim.call_at(1.2, lambda: service.move_user(users[4], "s0"))
    sim.call_at(1.6, lambda: service.shards["s1"].crash())
    sim.run()
    assert all(check.calls > 20 for check in checks)
    assert sum(check.reused_all for check in checks) > 0


def test_broadcast_recomputes_every_row():
    """``BroadcastInterest`` keeps its full answer: even a quiet tick
    queries every subscriber, so the reported and charged pairs
    coincide."""
    server = SyncServer(Simulator(seed=1), interest=BroadcastInterest())
    for i in range(4):
        server.subscribe(f"c{i}", lambda snapshot: None)
        server.ingest(ClientUpdate(f"c{i}", _state(
            f"c{i}", 0.0, [float(i), 0.0, 0.0], 0), 0))
    for tick in range(1, 4):
        server.tick_once()
        assert server.interest.last_pairs_scanned == 4 * 4
        assert server.metrics.counter("interest_pairs_scanned") == 16 * tick
