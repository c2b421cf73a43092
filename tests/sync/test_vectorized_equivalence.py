"""Data-plane components against their reference implementations.

The batched delta encoder must agree with the per-entity
:class:`DeltaEncoder` reference, and the interest CSR core with
:func:`naive_relevant`.
Whole-server snapshot streams are pinned by the golden digests in
``tests/golden/``.

Also here: regression tests for bugs fixed in the data plane (keyframe
cadence off-by-one, instantaneous-count egress division, the stale-seq
freeze of crash/rejoin clients, and unbounded encoder rows under
subscriber churn).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.avatar.state import AvatarState
from repro.sensing.pose import Pose
from repro.simkit import Simulator
from repro.sync.delta import BatchDeltaEncoder, WorldState
from repro.sync.federation import ShardedSyncService
from repro.sync.interest import InterestConfig, InterestManager, naive_relevant
from repro.sync.protocol import ClientUpdate
from repro.sync.server import ServerCostModel, SyncServer
from tests.oracles.delta import DeltaEncoder
from tests.sync.test_federation import _virtual_plan

pytestmark = pytest.mark.vectorized


def _random_state(rng, pid, t, seq, epoch=0, joints=False):
    pose = Pose(position=rng.uniform(-8.0, 8.0, size=3),
                orientation=rng.normal(size=4))
    joint_rotations = rng.normal(size=(5, 4)) if joints else None
    return AvatarState(pid, t, pose, joint_rotations=joint_rotations,
                       seq=seq, epoch=epoch)


def _canon_state(state):
    return (
        state.participant_id, state.epoch, state.seq,
        tuple(state.pose.position.tolist()),
        tuple(state.pose.orientation.tolist()),
    )


# -- encoder equivalence ------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    keyframe_interval=st.integers(min_value=1, max_value=4),
)
# A stale rejoin the reference suppresses: the row must keep its seen
# version, above the world's, or the entity's next update back to that
# version is sent a second time.
@example(seed=36, keyframe_interval=4)
def test_batch_encoder_matches_scalar_oracle(seed, keyframe_interval):
    """Property: both encoders agree on every (sent, removed, full) set
    over randomized entity churn (apply/remove/re-add with slot reuse,
    epoch bumps) and randomized per-subscriber relevance.  About half the
    steps hold every subscriber's previous relevant set (so the batch
    encoder's unchanged-row gather runs) or swap one member for another
    (a row that repeats only in part), and a subscriber is skipped on
    some steps, as snapshot decimation does."""
    rng = np.random.default_rng(seed)
    world = WorldState()
    scalar = DeltaEncoder(keyframe_interval=keyframe_interval)
    batch = BatchDeltaEncoder(keyframe_interval=keyframe_interval)
    entity_ids = [f"e{i}" for i in range(8)]
    subscriber_ids = ["s0", "s1", "s2"]
    seqs = {pid: -1 for pid in entity_ids}
    epochs = {pid: 0 for pid in entity_ids}
    previous = None
    for step in range(14):
        for pid in entity_ids:
            roll = rng.random()
            if roll < 0.55:
                seqs[pid] += 1
                world.apply(_random_state(
                    rng, pid, float(step), seqs[pid], epochs[pid],
                    joints=rng.random() < 0.3))
            elif roll < 0.70 and pid in world:
                world.remove(pid)
                if rng.random() < 0.5:  # crash/rejoin: reset seq, bump epoch
                    epochs[pid] += 1
                    seqs[pid] = -1
                elif rng.random() < 0.5:  # stale rejoin: an older seq
                    seqs[pid] -= int(rng.integers(1, 4))
        if rng.random() < 0.2 and len(world):
            # Subscriber churn hits both encoders' forget paths.
            victim = subscriber_ids[int(rng.integers(len(subscriber_ids)))]
            scalar.forget(victim)
            batch.forget(victim)
        live = sorted(world.entities)
        if previous and rng.random() < 0.5:
            relevant_sets = [{pid for pid in relevant if pid in world}
                             for relevant in previous]
            for relevant in relevant_sets:       # a same-size swap
                outside = sorted(set(live) - relevant)
                if relevant and outside and rng.random() < 0.3:
                    relevant.remove(sorted(relevant)[-1])
                    relevant.add(outside[int(rng.integers(len(outside)))])
        else:
            relevant_sets = [{pid for pid in live if rng.random() < 0.6}
                             for _ in subscriber_ids]
        previous = relevant_sets
        served = [i for i in range(len(subscriber_ids)) if rng.random() < 0.8]
        served_ids = [subscriber_ids[i] for i in served]
        relevant_sets = [relevant_sets[i] for i in served]
        # Scalar pass.
        oracle = [
            scalar.encode(sub, world, relevant)
            for sub, relevant in zip(served_ids, relevant_sets)
        ]
        # Batched pass over the same relevance as a slot CSR.
        slot_lists = [
            sorted(world.slot_of(pid) for pid in relevant)
            for relevant in relevant_sets
        ]
        offsets = np.concatenate(
            ([0], np.cumsum([len(s) for s in slot_lists]))).astype(np.int64)
        flat_slots = np.asarray(
            [slot for slots in slot_lists for slot in slots], dtype=np.int64)
        send_mask, full_flags, removed_lists = batch.encode_batch(
            world, served_ids, offsets, flat_slots)
        for i, (states, removed, full) in enumerate(oracle):
            sent_slots = flat_slots[offsets[i]:offsets[i + 1]][
                send_mask[offsets[i]:offsets[i + 1]]]
            sent = world.states_at(sent_slots)
            assert {_canon_state(state) for state in sent} == \
                {_canon_state(state) for state in states}, (seed, step, i)
            assert set(removed_lists[i]) == set(removed), (seed, step, i)
            assert bool(full_flags[i]) == full, (seed, step, i)


# -- interest CSR vs the naive oracle ----------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_interest_csr_matches_naive_oracle(seed):
    """The CSR core, fed straight from ``WorldState.compact`` (including
    reused slots), reproduces ``naive_relevant`` for every subject —
    distance ties included (integer-grid positions make them common)."""
    rng = np.random.default_rng(seed)
    config = InterestConfig(
        radius_m=float(rng.integers(2, 7)),
        max_entities=int(rng.integers(1, 5)),
    )
    manager = InterestManager(config)
    world = WorldState()
    n = int(rng.integers(2, 14))
    for i in range(n):
        pose = Pose(position=rng.integers(0, 5, size=3).astype(float))
        world.apply(AvatarState(f"e{i}", 0.0, pose, seq=0))
    # Slot-reuse churn: remove a few, re-add with moved positions.
    for i in range(n):
        if rng.random() < 0.3:
            world.remove(f"e{i}")
    for i in range(n):
        if f"e{i}" not in world and rng.random() < 0.7:
            pose = Pose(position=rng.integers(0, 5, size=3).astype(float))
            world.apply(AvatarState(f"e{i}", 1.0, pose, seq=1))
    if not len(world):
        world.apply(AvatarState("e0", 2.0, Pose(), seq=2))
    ids, slots, points = world.compact()
    subject_self = np.arange(len(ids), dtype=np.int64)
    offsets, flat = manager.relevant_indices_batch(
        points, points, subject_self, world.lexicographic_ranks())
    positions = world.positions()
    for i, subject_id in enumerate(ids):
        got = {ids[j] for j in flat[offsets[i]:offsets[i + 1]]}
        expected = naive_relevant(config, subject_id, points[i], positions)
        assert got == expected, (seed, subject_id)


# -- regression: keyframe cadence --------------------------------------------


@pytest.mark.parametrize("encoder_cls", [DeltaEncoder, BatchDeltaEncoder])
@pytest.mark.parametrize("interval", [1, 2, 3])
def test_keyframe_cadence_has_exact_period(encoder_cls, interval):
    """``keyframe_interval=k`` keyframes every k-th delivered snapshot —
    in particular ``k=1`` keyframes *every* tick (the off-by-one made it
    every other tick)."""
    world = WorldState()
    encoder = encoder_cls(keyframe_interval=interval)
    fulls = []
    for tick in range(9):
        world.apply(AvatarState("a", float(tick), Pose(), seq=tick))
        if encoder_cls is DeltaEncoder:
            _states, _removed, full = encoder.encode("sub", world, {"a"})
        else:
            slot = world.slot_of("a")
            _mask, full_flags, _removed = encoder.encode_batch(
                world, ["sub"], np.array([0, 1], dtype=np.int64),
                np.array([slot], dtype=np.int64))
            full = bool(full_flags[0])
        fulls.append(full)
    assert fulls == [(tick % interval) == 0 for tick in range(9)]


@pytest.mark.parametrize("encoder_cls", [DeltaEncoder, BatchDeltaEncoder])
def test_keyframe_counter_holds_until_actually_sent(encoder_cls):
    """A forced keyframe that carries nothing (the server drops empty
    snapshots) must stay pending until there is content to recover from."""
    world = WorldState()
    encoder = encoder_cls(keyframe_interval=2)

    def encode(relevant_slots):
        if encoder_cls is DeltaEncoder:
            relevant = {world.id_at(s) for s in relevant_slots}
            states, removed, full = encoder.encode("sub", world, relevant)
            return len(states), removed, full
        offsets = np.array([0, len(relevant_slots)], dtype=np.int64)
        mask, full_flags, removed = encoder.encode_batch(
            world, ["sub"], offsets,
            np.asarray(relevant_slots, dtype=np.int64))
        return int(mask.sum()), removed[0], bool(full_flags[0])

    world.apply(AvatarState("a", 0.0, Pose(), seq=0))
    slot = world.slot_of("a")
    sent, _removed, full = encode([slot])       # first contact: keyframe
    assert full and sent == 1
    sent, _removed, full = encode([slot])       # delta tick, nothing new
    assert not full and sent == 0
    # The interval has elapsed but relevance is empty... except for the
    # removal, so this keyframe does deliver — counter resets.
    sent, removed, full = encode([])
    assert full and list(removed) == ["a"]
    # Fresh subscriber state: nothing seen, next non-empty tick keyframes.
    world.apply(AvatarState("a", 1.0, Pose(), seq=1))
    sent, _removed, full = encode([world.slot_of("a")])
    assert full and sent == 1


@pytest.mark.parametrize("encoder_cls", [DeltaEncoder, BatchDeltaEncoder])
def test_stale_readd_stays_suppressed_after_an_unchanged_row(encoder_cls):
    """A re-added entity at a version the subscriber already has is not
    resent, also when that version reached it through a row that did
    not change (the batch encoder's gather path, which must advance the
    seen version in place for the pending entry to carry it)."""
    world = WorldState()
    encoder = encoder_cls(keyframe_interval=30)

    def encode(ids):
        if encoder_cls is DeltaEncoder:
            states, removed, _full = encoder.encode("sub", world, set(ids))
            return sorted(state.seq for state in states), removed
        slots = np.asarray(sorted(world.slot_of(i) for i in ids))
        mask, _full, removed = encoder.encode_batch(
            world, ["sub"], np.array([0, len(slots)]), slots)
        sent = world.states_at(slots[mask])
        return sorted(state.seq for state in sent), removed[0]

    for entity_id in ("a", "b"):
        world.apply(AvatarState(entity_id, 0.0, Pose(), seq=1))
    assert encode(["a", "b"]) == ([1, 1], [])
    world.apply(AvatarState("a", 1.0, Pose(), seq=2))
    assert encode(["a", "b"]) == ([2], [])       # same row: a resent
    world.remove("a")
    world.apply(AvatarState("a", 2.0, Pose(), seq=2))
    assert encode(["a", "b"]) == ([], [])        # already seen at seq 2


def test_encoder_rows_stay_bounded_under_subscriber_churn():
    """A row released by ``forget`` is reused: 5,000 subscribe, tick,
    unsubscribe cycles of one client keep the per-row arrays at their
    initial size (they used to grow to 8,192 rows)."""
    server = SyncServer(Simulator(seed=2), tick_rate_hz=20.0)
    server.ingest(ClientUpdate(
        "teacher", AvatarState("teacher", 0.0, Pose(), seq=0), 0))
    received = []
    for _ in range(5000):
        server.subscribe("student", received.append)
        server.tick_once()
        server.unsubscribe("student")
    assert len(received) == 5000 and all(s.full for s in received)
    assert len(server.encoder._ticks) <= 64


# -- regression: egress divides by time-averaged subscriber count -------------


def test_egress_per_client_uses_time_averaged_subscribers():
    """Subscribers that leave mid-window keep their weight in the
    per-client egress mean: 4 clients for the first half and 1 for the
    second divides by 2.5, not by the 1 left at read time."""
    sim = Simulator(seed=5)
    server = SyncServer(sim, tick_rate_hz=20.0)
    client_ids = [f"c{i}" for i in range(4)]
    rng = np.random.default_rng(5)
    for cid in client_ids:
        server.subscribe(cid, lambda snapshot: None)

    seqs = {cid: -1 for cid in client_ids}

    def driver():
        if sim.now >= 3.95:
            return None
        for cid in client_ids:
            seqs[cid] += 1
            server.ingest(ClientUpdate(
                cid, _random_state(rng, cid, sim.now, seqs[cid]),
                seqs[cid]))
        return 0.05

    def churn():
        for cid in client_ids[1:]:
            server.unsubscribe(cid)

    sim.every(float("inf"), driver)
    sim.call_later(2.0, churn)
    server.run(duration=4.0)
    sim.run()
    sent = server.metrics.counter("snapshot_bytes")
    assert sent > 0
    mean_subscribers = (4 * 2.0 + 1 * 2.0) / 4.0
    expected = sent / mean_subscribers / 4.0
    assert server.egress_bytes_per_client_s() == pytest.approx(expected)
    # The pre-fix computation (instantaneous count at read time).
    buggy = sent / len(server._subscribers) / 4.0
    assert server.egress_bytes_per_client_s() < 0.5 * buggy


# -- regression: epoch thaws crash/rejoin clients -----------------------------


def test_world_state_epoch_unfreezes_reset_seq():
    """A rejoining publisher with a reset seq is stale at epoch parity
    (the frozen-client bug) and accepted after an epoch bump; epochs
    never regress."""
    world = WorldState()
    assert world.apply(AvatarState("u", 0.0, Pose(), seq=9))
    stale_rejoin = AvatarState("u", 1.0, Pose(position=[1, 0, 0]), seq=0)
    assert not world.apply(stale_rejoin)         # frozen without an epoch
    assert world.entities["u"].seq == 9
    fresh = AvatarState("u", 1.0, Pose(position=[1, 0, 0]), seq=0, epoch=1)
    assert world.apply(fresh)                    # the fix: epoch wins
    assert world.entities["u"].epoch == 1 and world.entities["u"].seq == 0
    old_epoch = AvatarState("u", 2.0, Pose(), seq=99, epoch=0)
    assert not world.apply(old_epoch)            # pre-crash stragglers lose


def test_epoch_rejoin_through_cross_shard_ghosts():
    """The federated shape of the freeze: a user's pre-crash ghost (high
    seq) lives in another shard's world; after the home shard dies the
    user re-homes there and publishes with a reset seq.  The bumped
    epoch must thaw the ghost."""
    sim = Simulator(seed=3)
    plan, _users = _virtual_plan(2, 2)           # u00 -> s0, u01 -> s1
    service = ShardedSyncService(sim, plan, interest_config=InterestConfig(
        radius_m=10.0, max_entities=8))
    service.add_client("u01")                    # s1 subscriber => digests

    def publish(epoch, start, count):
        seqs = iter(range(count))

        def body():
            seq = next(seqs, None)
            if seq is None:
                return None
            state = AvatarState(
                "u00", sim.now,
                Pose(position=[1.0 + 0.1 * seq + epoch, 0.0, 1.2]),
                seq=seq, epoch=epoch)
            service.route_update("u00", ClientUpdate("u00", state, seq))
            return 0.05

        sim.call_later(start, lambda: sim.every(float("inf"), body))

    publish(epoch=0, start=0.0, count=20)        # first session, homed s0
    service.start(6.0)

    def crash_and_rehome():
        service.shards["s0"].crash()
        service.home["u00"] = "s1"               # rejoin lands on s1

    sim.call_later(2.5, crash_and_rehome)
    publish(epoch=1, start=3.0, count=10)        # reset seq, bumped epoch
    sim.run()
    ghost = service.shards["s1"].world.entities["u00"]
    assert ghost.epoch == 1 and ghost.seq == 9   # thawed, not frozen at 19
    assert ghost.pose.position[0] == pytest.approx(1.0 + 0.9 + 1)


# -- the vectorized cost model ------------------------------------------------


def test_vectorized_cost_model_holds_20hz_at_10k():
    """The calibrated batched-tick constants keep a 10k-entity shard's
    modeled tick inside a 20 Hz period at C3a-like interest density."""
    model = ServerCostModel.vectorized()
    cost = model.tick_cost(
        n_updates=10_000, n_states_sent=10_000 * 50,
        pairs_scanned=10_000 * 500)
    assert cost < 0.05
    assert model.base == ServerCostModel().base
