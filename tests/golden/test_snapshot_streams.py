"""Golden digests of the sync data plane's per-client snapshot streams.

Each scenario below is a seeded room (or federation) whose clients'
snapshot streams are reduced to a canonical form — tick, server time,
keyframe flag, wire size, sorted removals and sorted state contents —
and hashed.  ``snapshot_streams.json`` pins one digest per scenario, so
replica-visible behaviour is fixed in data rather than by a second
implementation running next to the first.

Scenario inputs avoid transcendental functions (motion is linear or
drawn from the seeded generator) so the digests do not depend on the
platform's libm.  On a mismatch the failure names the scenario and the
new digest; a deliberate behaviour change updates that entry in the
JSON file.
"""

import hashlib
import itertools
import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.avatar.state import AvatarState
from repro.cloud.regions import RegionalPlan
from repro.net.faults import FaultInjector, ServerCrashSchedule
from repro.sensing.pose import Pose
from repro.simkit import Simulator
from repro.sync.client import SyncClient
from repro.sync.federation import ShardedSyncService, ShardHandoffController
from repro.sync.interest import BroadcastInterest, InterestConfig, InterestManager
from repro.sync.migration import FailoverController, MigratableClient
from repro.sync.protocol import ClientUpdate
from repro.sync.server import SyncServer

pytestmark = pytest.mark.vectorized

GOLDEN_PATH = Path(__file__).with_name("snapshot_streams.json")


def _random_state(rng, pid, t, seq, epoch=0, joints=False):
    pose = Pose(position=rng.uniform(-8.0, 8.0, size=3),
                orientation=rng.normal(size=4))
    joint_rotations = rng.normal(size=(5, 4)) if joints else None
    return AvatarState(pid, t, pose, joint_rotations=joint_rotations,
                       seq=seq, epoch=epoch)


def _canon_state(state):
    return [
        state.participant_id, state.epoch, state.seq,
        state.pose.position.tolist(), state.pose.orientation.tolist(),
    ]


def _canon_snapshot(snapshot):
    return [
        snapshot.tick,
        round(snapshot.server_time, 12),
        snapshot.full,
        snapshot.size_bytes,
        sorted(snapshot.removed),
        sorted(_canon_state(state) for state in snapshot.states),
    ]


def stream_digest(value) -> str:
    """First 16 hex digits of the SHA-256 of ``value`` as canonical JSON."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _linear(start, velocity):
    """Constant-velocity motion: additions and products only."""
    start = np.asarray(start, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    return lambda t: Pose(position=start + velocity * t)


# -- scenarios -----------------------------------------------------------------


def run_churn(seed, keyframe_interval, broadcast=False):
    """Entity churn (drop and rejoin with a bumped epoch, joint payloads)
    plus subscriber churn (leave, return, late joiner) on one server."""
    sim = Simulator(seed=seed)
    rng = np.random.default_rng(seed)
    interest = BroadcastInterest() if broadcast else InterestManager(
        InterestConfig(radius_m=6.0, max_entities=4))
    server = SyncServer(
        sim, tick_rate_hz=20.0, interest=interest,
        keyframe_interval=keyframe_interval)
    client_ids = [f"c{i}" for i in range(4)]
    received = {cid: [] for cid in client_ids}

    def capture(cid):
        return lambda snapshot: received[cid].append(_canon_snapshot(snapshot))

    for cid in client_ids[:3]:
        server.subscribe(cid, capture(cid))
    entity_ids = client_ids + [f"e{i}" for i in range(8)]
    seqs = {pid: -1 for pid in entity_ids}
    epochs = {pid: 0 for pid in entity_ids}

    steps = itertools.count()

    def driver():
        if sim.now >= 1.95:
            return None
        step = next(steps)
        for pid in entity_ids:
            if rng.random() < 0.7:
                seqs[pid] += 1
                server.ingest(ClientUpdate(
                    pid,
                    _random_state(rng, pid, sim.now, seqs[pid],
                                  epochs[pid],
                                  joints=rng.random() < 0.25),
                    seqs[pid]))
        if step == 12:
            server.unsubscribe("c1")
        if step == 20:
            server.subscribe("c1", capture("c1"))
            server.subscribe("c3", capture("c3"))
        if step == 16:
            server.world.remove("e3")
            epochs["e3"] += 1
            seqs["e3"] = -1
        return 0.05

    sim.every(float("inf"), driver)
    server.run(duration=2.0)
    sim.run()
    assert all(received.values())
    return {
        "streams": received,
        "pairs_scanned": server.metrics.counter("interest_pairs_scanned"),
    }


def run_failover(seed=7, duration=4.0):
    """Primary crash, failure detection, re-attach to a standby."""
    sim = Simulator(seed=seed)
    received = []
    servers = {}
    for name in ("primary", "standby"):
        server = SyncServer(sim, name=name, tick_rate_hz=20.0)
        rng = np.random.default_rng(seed + (name == "standby"))
        seqs = {}

        def driver(server=server, rng=rng, seqs=seqs):
            if sim.now >= duration - 1e-9:
                return None
            for i in range(4):
                pid = f"{server.name}-bg{i}"
                seqs[pid] = seqs.get(pid, -1) + 1
                server.ingest(ClientUpdate(
                    pid, _random_state(rng, pid, sim.now, seqs[pid]),
                    seqs[pid]))
            return 0.05

        sim.every(float("inf"), driver)
        server.run(duration=duration)
        servers[name] = server

    holder = {}

    def path(server):
        def send(snapshot):
            received.append([server.name, _canon_snapshot(snapshot)])
            holder["m"].note_snapshot(snapshot, origin=server.name)
        return send

    client = SyncClient(sim, "student", transmit=lambda update: None)
    migratable = MigratableClient(
        sim, client, servers["primary"], path(servers["primary"]))
    holder["m"] = migratable
    controller = FailoverController(
        sim, migratable, detection_timeout=0.3, check_period=0.05)
    controller.add_standby(servers["standby"], path(servers["standby"]))
    controller.run(duration=duration)
    FaultInjector(sim).server_crash(
        servers["primary"], ServerCrashSchedule([(duration * 0.4, None)]))
    sim.run()
    assert migratable.failovers == 1
    assert any(name == "standby" for name, _ in received)
    return {
        "stream": received,
        "blackout_s": round(migratable.blackout_s, 12),
    }


def run_decimation(seed=3, duration=3.0, delay=0.005):
    """Per-client snapshot decimation, including a factor change and a
    reset to full rate mid-run, over fixed-delay links."""
    sim = Simulator(seed=seed)
    server = SyncServer(sim, tick_rate_hz=20.0)
    received = {}
    for i in range(5):
        cid = f"c{i}"
        received[cid] = []

        def transmit(update):
            sim.call_later(delay, lambda: server.ingest(update))

        client = SyncClient(sim, cid, transmit, update_rate_hz=20.0)
        client.local_pose = _linear([i * 1.5, 0.0, 1.2],
                                    [0.1 * (i % 3), 0.05, 0.0])
        server.subscribe(
            cid, lambda snapshot, c=cid: received[c].append(
                _canon_snapshot(snapshot)))
        client.run(duration=duration)
    server.set_snapshot_decimation("c0", 3)
    server.set_snapshot_decimation("c2", 2)
    sim.call_at(1.2, lambda: server.set_snapshot_decimation("c2", 4))
    sim.call_at(2.0, lambda: server.set_snapshot_decimation("c0", 1))
    server.run(duration=duration)
    sim.run()
    assert server.metrics.counter("snapshots_decimated") > 0
    return {"streams": received}


def run_federation(seed=21, duration=3.0):
    """Three virtual shards (fixed link delays), walkers among seated
    users, one voluntary move and one shard crash with failover."""
    sites = ["s0", "s1", "s2"]
    users = [f"u{i:02d}" for i in range(9)]
    plan = RegionalPlan(
        sites=sites,
        assignment={user: sites[i % 3] for i, user in enumerate(users)},
        rtts={user: 0.02 for user in users},
    )
    sim = Simulator(seed=seed)
    service = ShardedSyncService(
        sim, plan, relay_rate_hz=50.0,
        interest_config=InterestConfig(radius_m=3.0, max_entities=3))
    received = {user: [] for user in users}
    deliver = service._deliver_snapshot

    def capture(user_id, site, snapshot):
        received[user_id].append([site, _canon_snapshot(snapshot)])
        deliver(user_id, site, snapshot)

    service._deliver_snapshot = capture
    for index, user in enumerate(users):
        federated = service.add_client(user)
        velocity = [0.6, 0.0, 0.0] if index % 3 == 0 else [0.0, 0.0, 0.0]
        federated.client.local_pose = _linear(
            [float(index % 3), float(index // 3), 1.2], velocity)
        federated.client.run(duration)
    service.start(duration)
    handoff = ShardHandoffController(sim, service, detection_timeout=0.3,
                                     check_period=0.05)
    handoff.run(duration)
    sim.call_at(0.8, lambda: service.move_user("u01", "s0"))
    FaultInjector(sim).server_crash(
        service.shards["s2"], ServerCrashSchedule([(1.5, None)]))
    sim.run()
    blackouts = handoff.blackouts()
    assert blackouts and all(value is not None for value in blackouts.values())
    return {
        "streams": received,
        "homes": dict(sorted(service.home.items())),
        "blackouts": {user: round(value, 12)
                      for user, value in sorted(blackouts.items())},
    }


SCENARIOS = {
    **{
        f"churn-seed{seed}-kf{interval}": partial(
            run_churn, seed, interval)
        for seed in (11, 29)
        for interval in (1, 3, 30)
    },
    "failover-standby": run_failover,
    "decimation": run_decimation,
    "federation-move-crash": run_federation,
    "broadcast-churn": partial(run_churn, 11, 30, broadcast=True),
}


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_scenario():
    assert sorted(_golden()) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_snapshot_stream_matches_golden_digest(name):
    got = stream_digest(SCENARIOS[name]())
    expected = _golden()[name]
    assert got == expected, (
        f"scenario {name!r}: snapshot stream digest is now {got} "
        f"(golden {expected})")
