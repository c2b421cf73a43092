"""Golden digests of the federation's shard-to-shard relay streams.

One seeded four-shard federation over virtual sites (fixed link
delays, linear motion only, so no platform libm enters) grows a fifth
shard mid-run and later drains one of the originals.  Every relay
message delivered on a directed pair is reduced to ``[delivery time,
seq, sorted state ids, removed ids, keyframe flag, state bytes]``;
``relay_streams.json`` pins, per pair, the record count and the digest
of the record list.  A change to when a relay fires, what it forwards
or how it delta-encodes shows up here as a named pair.

The newcomer's own round fires on its add instant's phase, while each
``*->s4`` pair joins its source's round and fires on the source's grid,
from the first firing after the add; the old pairs never move when a
shard joins.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cloud.regions import RegionalPlan
from repro.sensing.pose import Pose
from repro.simkit import Simulator
from repro.sync.federation import ShardedSyncService
from repro.sync.interest import InterestConfig
from tests.golden.test_snapshot_streams import stream_digest

pytestmark = pytest.mark.vectorized

GOLDEN_PATH = Path(__file__).with_name("relay_streams.json")


def _linear(start, velocity):
    start = np.asarray(start, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    return lambda t: Pose(position=start + velocity * t)


def run_add_drain(seed=17, duration=3.0):
    """Four shards at 50 Hz relays; ``s4`` joins at 1.01 s (off the
    relay grid) and takes two users, ``s1`` is drained at 2.03 s."""
    sites = ["s0", "s1", "s2", "s3"]
    users = [f"u{i:02d}" for i in range(12)]
    plan = RegionalPlan(
        sites=list(sites),
        assignment={user: sites[i % 4] for i, user in enumerate(users)},
        rtts={user: 0.02 for user in users},
    )
    sim = Simulator(seed=seed)
    service = ShardedSyncService(
        sim, plan, relay_rate_hz=50.0,
        interest_config=InterestConfig(radius_m=3.0, max_entities=3))
    streams = {}
    deliver = service._on_shard_delta_packet

    def capture(packet):
        delta = packet.payload
        streams.setdefault(f"{delta.src_site}->{delta.dst_site}", []).append([
            round(sim.now, 12), delta.seq,
            sorted(state.participant_id for state in delta.states),
            list(delta.removed), delta.full, delta.states_bytes,
        ])
        deliver(packet)

    service._on_shard_delta_packet = capture
    for index, user in enumerate(users):
        federated = service.add_client(user)
        velocity = [0.5, 0.0, 0.0] if index % 3 == 0 else [0.0, -0.25, 0.0]
        federated.client.local_pose = _linear(
            [2.5 * (index % 4), 2.0 * (index // 4), 1.2], velocity)
        federated.client.run(duration)
    service.start(duration)

    def grow():
        service.add_site("s4")
        service.move_user("u00", "s4")
        service.move_user("u05", "s4")

    sim.call_at(1.01, grow)
    sim.call_at(2.03, lambda: service.drain_site("s1"))
    sim.run()
    assert sorted(service.shards) == ["s0", "s2", "s3", "s4"]
    return streams


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def relay_stream_summary():
    return {
        pair: {"deltas": len(records), "digest": stream_digest(records)}
        for pair, records in sorted(run_add_drain().items())
    }


def test_relay_streams_match_golden_digests():
    got = relay_stream_summary()
    expected = _golden()
    assert sorted(got) == sorted(expected)
    changed = {pair: got[pair] for pair in got if got[pair] != expected[pair]}
    assert not changed, f"relay streams moved on {sorted(changed)}: {changed}"
