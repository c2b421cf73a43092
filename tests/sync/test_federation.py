"""Federation tests: sharded sync vs. the single-server oracle.

The load-bearing claim of `repro.sync.federation` is that sharding is an
*implementation* detail, not a consistency model: on loss-free links a
k-shard world must converge to exactly the per-client visible state a
single authoritative server would produce.  The hypothesis property test
pins that, the rest covers handoff determinism and the service surface.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.regions import RegionalPlan, plan_regions
from repro.net.faults import FaultInjector, ServerCrashSchedule
from repro.sensing.pose import Pose
from repro.simkit import Simulator
from repro.sync.federation import (
    ShardedSyncService, ShardHandoffController, ShardRelay,
)
from repro.sync.interest import InterestConfig, InterestManager
from repro.workload.population import sample_worldwide
from repro.workload.traces import WalkingMotion
from tests.oracles.traces import StationaryMotion

pytestmark = pytest.mark.federation

PUBLISH_S = 1.5   # clients publish this long ...
SETTLE_S = 4.0    # ... and the world runs this long (last states settle)


def _virtual_plan(n_users, k):
    """Round-robin users over k virtual sites with symmetric 20 ms RTTs."""
    sites = [f"s{i}" for i in range(k)]
    users = [f"u{i:02d}" for i in range(n_users)]
    return RegionalPlan(
        sites=sites,
        assignment={user: sites[i % k] for i, user in enumerate(users)},
        rtts={user: 0.02 for user in users},
    ), users


def _run_world(seed, n_users, k, positions, interest):
    """One federated world over static avatars; returns visible seq maps."""
    sim = Simulator(seed=seed)
    plan, users = _virtual_plan(n_users, k)
    service = ShardedSyncService(sim, plan, interest_config=interest)
    clients = {}
    for user, position in zip(users, positions):
        federated = service.add_client(user)
        federated.client.local_pose = StationaryMotion(
            Pose(position=np.array([position[0], position[1], 1.2])))
        federated.client.run(PUBLISH_S)
        clients[user] = federated
    service.start(SETTLE_S)
    sim.run()
    return {
        user: {
            entity: state.seq
            for entity, state in federated.client.latest_states().items()
        }
        for user, federated in clients.items()
    }


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    k=st.integers(min_value=2, max_value=3),
    data=st.data(),
)
def test_sharded_world_converges_to_single_server_oracle(seed, k, data):
    """Property: k shards and one server show every client the same world.

    Static integer-grid positions (distance ties are legal: the interest
    policy's (distance, id) order is total), arbitrary radius/top-k
    interest, loss-free symmetric links.  After everyone's last update
    has settled, each client's visible {entity: newest seq} must be
    byte-equal to the k=1 oracle's.
    """
    n_users = data.draw(st.integers(min_value=3, max_value=8))
    positions = data.draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=12),
                      st.integers(min_value=0, max_value=12)),
            min_size=n_users, max_size=n_users,
        )
    )
    interest = InterestConfig(
        radius_m=data.draw(
            st.floats(min_value=1.0, max_value=20.0,
                      allow_nan=False, allow_infinity=False)),
        max_entities=data.draw(st.integers(min_value=1, max_value=6)),
    )
    sharded = _run_world(seed, n_users, k, positions, interest)
    oracle = _run_world(seed, n_users, 1, positions, interest)
    assert sharded == oracle


def _run_crash_handoff(seed):
    """A 3-shard worldwide deployment losing its busiest shard mid-run."""
    duration = 6.0
    population = sample_worldwide(9, np.random.default_rng(seed))
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
        federated.client.run(duration)
    service.start(duration)
    handoff = ShardHandoffController(sim, service, detection_timeout=0.3,
                                     check_period=0.05)
    handoff.run(duration)

    load = {}
    for federated in service.clients.values():
        load[federated.home] = load.get(federated.home, 0) + 1
    victim = max(sorted(load), key=lambda site: load[site])
    injector = FaultInjector(sim)
    injector.server_crash(service.shards[victim],
                          ServerCrashSchedule([(2.0, None)]))
    sim.run()
    return {
        "victim": victim,
        "homes": dict(sorted(service.home.items())),
        "blackouts": {user: round(value, 12)
                      for user, value in sorted(handoff.blackouts().items())
                      if value is not None},
        "events": handoff.events,
        "fault_log": injector.fingerprint(),
    }


def test_crash_handoff_replays_byte_identically():
    """The same seed must reproduce the same crash, blackouts and plan."""
    first = _run_crash_handoff(seed=1234)
    second = _run_crash_handoff(seed=1234)
    assert repr(first) == repr(second)
    # And the scenario is non-trivial: someone actually failed over,
    # with a blackout bounded by detection + handover + keyframe.
    assert first["blackouts"]
    for blackout in first["blackouts"].values():
        assert 0.3 < blackout < 1.5
    # Nobody is routed at the dead shard anymore.
    assert first["victim"] not in first["homes"].values()


def test_crash_handoff_differs_across_seeds():
    assert repr(_run_crash_handoff(seed=1)) != repr(_run_crash_handoff(seed=2))


# -- service surface ---------------------------------------------------------


def _two_shard_service(sim, n_users=4):
    plan, users = _virtual_plan(n_users, 2)
    service = ShardedSyncService(
        sim, plan,
        interest_config=InterestConfig(radius_m=50.0, max_entities=16))
    clients = {}
    for index, user in enumerate(users):
        federated = service.add_client(user)
        federated.client.local_pose = StationaryMotion(
            Pose(position=np.array([float(index), 0.0, 1.2])))
        clients[user] = federated
    return service, clients


def test_cross_shard_states_flow_through_relays():
    sim = Simulator(seed=5)
    service, clients = _two_shard_service(sim)
    for federated in clients.values():
        federated.client.run(2.0)
    service.start(4.0)
    sim.run()
    # u00/u02 live on s0, u01/u03 on s1 — everyone sees everyone.
    for user, federated in clients.items():
        expected = sorted(set(clients) - {user})
        assert federated.client.known_entities == expected
    stats = service.relay_stats()
    assert stats["s0->s1"]["states_forwarded"] > 0
    assert stats["s1->s0"]["states_forwarded"] > 0
    assert service.metrics.counter("shard_deltas_delivered") > 0


def test_move_user_is_make_before_break():
    sim = Simulator(seed=6)
    service, clients = _two_shard_service(sim)
    for federated in clients.values():
        federated.client.run(3.0)
    service.start(3.5)
    sim.call_at(1.5, lambda: service.move_user("u00", "s1"))
    sim.run()
    moved = clients["u00"]
    assert moved.home == "s1"
    assert service.plan.assignment["u00"] == "s1"
    # Make-before-break: no failure detector fired, and the switchover
    # gap is a tick or so — not a detection-timeout-sized blackout.
    assert moved.migratable.failovers == 0
    assert moved.migratable.blackout_s < 0.2
    assert service.metrics.counter("handoffs_voluntary") == 1
    # The moved client still converges on the full world.
    assert moved.client.known_entities == ["u01", "u02", "u03"]


def _pose_state(entity_id, position, seq):
    from repro.avatar.state import AvatarState

    return AvatarState(entity_id, 0.0,
                       Pose(position=np.asarray(position, dtype=float)),
                       seq=seq)


def test_delivered_digest_holds_send_time_positions():
    """A digest is a snapshot taken at send time, not a view of the
    sending world: moves, removals and slot reuse between send and
    delivery must not leak into what the other shard receives."""
    sim = Simulator(seed=11)
    service, _clients = _two_shard_service(sim)
    world = service.shards["s0"].world
    world.apply(_pose_state("u00", [1.0, 2.0, 1.2], seq=0))
    world.apply(_pose_state("u02", [3.0, 4.0, 1.2], seq=0))
    sent = {"u00": np.array([1.0, 2.0, 1.2]), "u02": np.array([3.0, 4.0, 1.2])}

    [delta] = ShardRelay(service, "s0", [service.relays[("s0", "s1")]]).fire()
    assert sorted(delta.subscribers) == ["u00", "u02"]
    # In flight: u00 moves, u02 leaves and a newcomer takes its slot.
    world.apply(_pose_state("u00", [9.0, 9.0, 1.2], seq=1))
    freed = world.slot_of("u02")
    world.remove("u02")
    world.apply(_pose_state("npc", [-14.0, 0.0, 1.2], seq=0))
    assert world.slot_of("npc") == freed
    sim.run(until=0.1)

    delivered = service.relays[("s1", "s0")].remote_subjects
    assert sorted(delivered) == sorted(sent)
    for user, position in sent.items():
        np.testing.assert_array_equal(delivered[user], position)


def test_digest_holds_the_clients_homed_on_the_site():
    """The digest is built from the shard's subscribers; after a voluntary
    move and after a crash failover its keys are still exactly the
    clients whose home is that site."""
    sim = Simulator(seed=13)
    plan, users = _virtual_plan(6, 3)
    service = ShardedSyncService(
        sim, plan, interest_config=InterestConfig(radius_m=50.0,
                                                  max_entities=16))
    for index, user in enumerate(users):
        federated = service.add_client(user)
        federated.client.local_pose = StationaryMotion(
            Pose(position=np.array([float(index), 0.0, 1.2])))
        federated.client.run(3.0)
    service.start(3.0)
    handoff = ShardHandoffController(sim, service, detection_timeout=0.3,
                                     check_period=0.05)
    handoff.run(3.0)
    checked = []

    def check(label):
        for site, shard in service.shards.items():
            if shard.crashed:
                continue
            homed = {user for user, federated in service.clients.items()
                     if federated.home == site}
            assert set(service.home_subscriber_digest(site)) == homed, \
                (label, site)
        checked.append(label)

    sim.call_at(0.8, lambda: service.move_user("u00", "s1"))
    sim.call_at(1.0, lambda: check("moved"))
    FaultInjector(sim).server_crash(
        service.shards["s2"], ServerCrashSchedule([(1.5, None)]))
    sim.run()
    assert service.clients["u00"].home == "s1"
    assert all(federated.home != "s2"
               for federated in service.clients.values())
    check("failed over")
    assert checked == ["moved", "failed over"]


def test_rebalance_excludes_sites_and_moves_clients():
    duration = 6.0
    population = sample_worldwide(8, np.random.default_rng(3))
    sim = Simulator(seed=8)
    plan = plan_regions(population, k=3)
    service = ShardedSyncService(
        sim, plan, population,
        interest_config=InterestConfig(radius_m=50.0, max_entities=16))
    for index, user in enumerate(sorted(population.users,
                                        key=lambda u: u.user_id)):
        federated = service.add_client(user.user_id)
        federated.client.local_pose = StationaryMotion(
            Pose(position=np.array([float(index), 0.0, 1.2])))
        federated.client.run(duration)
    service.start(duration)
    excluded = plan.sites[0]
    displaced = [user for user, site in plan.assignment.items()
                 if site == excluded]
    sim.call_at(2.0, lambda: service.rebalance(exclude=(excluded,)))
    sim.run()
    assert excluded not in service.plan.sites
    assert excluded not in service.home.values()
    for user in displaced:
        assert service.clients[user].home != excluded


def test_service_validation():
    sim = Simulator(seed=9)
    with pytest.raises(ValueError):
        ShardedSyncService(sim, RegionalPlan(sites=[]))
    with pytest.raises(ValueError):
        ShardedSyncService(sim, RegionalPlan(sites=["a", "a"]))
    plan, _users = _virtual_plan(2, 2)
    service = ShardedSyncService(sim, plan)
    service.add_client("u00")
    with pytest.raises(ValueError):
        service.add_client("u00")
    with pytest.raises(KeyError):
        service.add_client("stranger")
    with pytest.raises(KeyError):
        service.move_user("u00", "mars")
    with pytest.raises(RuntimeError):
        service.rebalance()  # no population attached


@pytest.mark.obs
def test_traced_update_gets_a_shard_relay_span():
    """A traced cross-shard update is attributed a ``shard_relay`` stage."""
    sim = Simulator(seed=10, obs=True)
    service, clients = _two_shard_service(sim, n_users=2)

    publisher = clients["u00"].client
    inner = publisher.transmit

    def traced(update):
        root = sim.obs.start_trace("update", entity=update.client_id)
        update.ctx = root.context
        inner(update)

    publisher.transmit = traced
    for federated in clients.values():
        federated.client.run(2.0)
    service.start(3.0)
    sim.run()

    relay_spans = sim.obs.spans("shard_relay")
    assert relay_spans, "no shard_relay span was recorded"
    # The relay span sits on the publisher's trace, between its wan
    # (uplink) span and the destination shard's tick attribution.
    wan_traces = {span.context.trace_id for span in sim.obs.spans("wan")}
    assert all(span.context.trace_id in wan_traces for span in relay_spans)
    assert sim.obs.spans("tick_wait")  # remote tick attribution continued


# -- relay interest reuse ------------------------------------------------------


def _reference_relevant_slots(config, ids, slots, points, subjects):
    """A fresh batch interest query on one fire's inputs, with id ranks
    from a plain string sort."""
    if subjects is None or not len(slots):
        return set()
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[np.argsort(np.asarray(ids, dtype=object))] = np.arange(len(ids))
    _offsets, flat = InterestManager(config).relevant_indices_batch(
        points, subjects, np.full(len(subjects), -1, dtype=np.int64), ranks)
    return set(slots[np.unique(flat)].tolist())


def _record_relay_fires(service):
    """Wrap the relay rounds' interest query and every source's relay
    encode.  Each encode logs, per destination, that fire's inputs, the
    slots encoded for it and whether the round's query covered it: its
    cached answer was recomputed, and the query stacked exactly the
    recomputed destinations' subjects (no query when there were none)."""
    fires = []
    queries = []
    answers = {}

    def counting(points, subjects, *args,
                 _inner=service.relay_interest.relevant_indices_batch):
        queries.append(len(subjects))
        return _inner(points, subjects, *args)

    service.relay_interest.relevant_indices_batch = counting
    for src, encoder in sorted(service.relay_encoders.items()):

        def observing(world, subscribers, offsets, flat,
                      _inner=encoder.encode_batch, _src=src):
            ids, slots, points, _rows = service.local_soa(_src)
            queried = 0
            for i, dst in enumerate(subscribers):
                pair = service.relays[(_src, dst)]
                subjects = None
                if pair.remote_subjects:
                    subjects = np.stack(list(pair.remote_subjects.values()))
                fresh = pair.relevant is not answers.get((_src, dst))
                answers[(_src, dst)] = pair.relevant
                if fresh:
                    queried += len(subjects)
                fires.append({
                    "relay": (_src, dst), "ids": list(ids),
                    "slots": slots.copy(), "points": points.copy(),
                    "subjects": subjects,
                    "encoded": set(np.asarray(
                        flat[offsets[i]:offsets[i + 1]]).tolist()),
                    "calls": int(fresh),
                })
            assert queries == ([queried] if queried else [])
            queries.clear()
            return _inner(world, subscribers, offsets, flat)

        encoder.encode_batch = observing
    return fires


def _run_relay_reuse_world(seed):
    """Three shards, walkers among seated users on a tie-rich grid, one
    voluntary move and one shard crash with failover."""
    duration = 3.0
    population = sample_worldwide(9, np.random.default_rng(seed))
    sim = Simulator(seed=seed)
    plan = plan_regions(population, k=3)
    config = InterestConfig(radius_m=3.0, max_entities=2)
    service = ShardedSyncService(sim, plan, population, relay_rate_hz=100.0,
                                 interest_config=config)
    fires = _record_relay_fires(service)
    users = sorted(population.users, key=lambda u: u.user_id)
    for index, user in enumerate(users):
        federated = service.add_client(user.user_id)
        start = np.array([float(index % 3), float(index // 3), 1.2])
        if index % 3 == 0:
            motion = WalkingMotion([start, start + [2.0, 0.0, 0.0]],
                                   speed_m_per_s=1.0)
        else:
            motion = StationaryMotion(Pose(position=start))
        federated.client.local_pose = motion
        federated.client.run(duration)
    service.start(duration)
    handoff = ShardHandoffController(sim, service, detection_timeout=0.3,
                                     check_period=0.05)
    handoff.run(duration)
    mover = users[1].user_id
    target = next(site for site in plan.sites
                  if site != service.home[mover])
    sim.call_at(0.8, lambda: service.move_user(mover, target))
    victim = next(site for site in plan.sites
                  if site not in (service.home[mover], target))
    injector = FaultInjector(sim)
    injector.server_crash(service.shards[victim],
                          ServerCrashSchedule([(1.5, None)]))
    sim.run()
    return config, fires, handoff


def test_relay_reuses_interest_only_while_inputs_repeat():
    """Every fire encodes exactly what a fresh interest query on its own
    inputs returns; a fire whose inputs equal those of the relay's last
    query makes no query, and a change to any one input makes one."""
    config, fires, handoff = _run_relay_reuse_world(seed=21)
    assert handoff.events, "the crash did not fail anyone over"
    last = {}
    reused = 0
    changes = set()
    for fire in fires:
        expected = _reference_relevant_slots(
            config, fire["ids"], fire["slots"], fire["points"],
            fire["subjects"])
        assert fire["encoded"] == expected
        if fire["subjects"] is None or not len(fire["slots"]):
            assert fire["calls"] == 0
            continue
        previous = last.get(fire["relay"])
        differs = None if previous is None else {
            "membership": previous["ids"] != fire["ids"]
            or not np.array_equal(previous["slots"], fire["slots"]),
            "local": not np.array_equal(previous["points"], fire["points"]),
            "digest": not np.array_equal(previous["subjects"],
                                         fire["subjects"]),
        }
        if differs is not None and not any(differs.values()):
            assert fire["calls"] == 0
            reused += 1
            continue
        assert fire["calls"] == 1
        last[fire["relay"]] = fire
        if differs is not None:
            changed = [name for name, flag in differs.items() if flag]
            if changed == ["local"] or changed == ["digest"]:
                changes.add(changed[0])
            elif "membership" in changed and not differs["digest"]:
                changes.add("membership")
    assert reused > len(fires) // 4
    assert changes == {"membership", "local", "digest"}


def test_relay_recomputes_when_membership_alone_changes():
    """Replacing an entity in place (same slot, same position) changes
    only the ids, and with them the distance tie-break: the relay must
    not reuse the answer it computed for the old membership."""
    sim = Simulator(seed=12)
    plan, _users = _virtual_plan(2, 2)
    service = ShardedSyncService(
        sim, plan, interest_config=InterestConfig(radius_m=5.0,
                                                  max_entities=1))
    world = service.shards["s0"].world
    pair = service.relays[("s0", "s1")]
    pair.remote_subjects = {"u01": np.zeros(3)}
    relay = ShardRelay(service, "s0", [pair])
    for entity_id, x in (("b", 1.0), ("c", -1.0)):
        service.entity_home[entity_id] = "s0"
        world.apply(_pose_state(entity_id, [x, 0.0, 0.0], seq=0))
    # b and c tie at 1 m; the id tie-break picks b.
    [delta] = relay.fire()
    assert [s.participant_id for s in delta.states] == ["b"]
    assert relay.fire() is None  # nothing changed, nothing to send

    freed = world.slot_of("b")
    world.remove("b")
    service.entity_home["z"] = "s0"
    world.apply(_pose_state("z", [1.0, 0.0, 0.0], seq=0))
    assert world.slot_of("z") == freed
    [delta] = relay.fire()
    assert [s.participant_id for s in delta.states] == ["c"]
    assert delta.removed == ["b"]
