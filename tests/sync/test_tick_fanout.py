"""The tick's per-subscriber fan-out: who gets a snapshot, and what it holds."""

import pytest

from repro.avatar.state import AvatarState
from repro.sensing.pose import Pose
from repro.simkit import Simulator
from repro.sync.interest import InterestConfig, InterestManager
from repro.sync.protocol import HEADER_BYTES, ClientUpdate, ServerSnapshot
from repro.sync.server import SyncServer


def _hall():
    """Three subscribers: ``a`` and ``b`` within a 2 m radius of each
    other, ``c`` 50 m away, each with one update pending; returns the
    server and per-client inboxes."""
    sim = Simulator(seed=1)
    server = SyncServer(
        sim, interest=InterestManager(InterestConfig(radius_m=2.0)))
    inbox = {cid: [] for cid in "abc"}
    for seq, (cid, x) in enumerate((("a", 0.0), ("b", 1.0), ("c", 50.0))):
        server.subscribe(cid, inbox[cid].append)
        _publish(server, cid, (x, 0.0, 1.2), seq)
    return server, inbox


def _publish(server, cid, position, seq):
    state = AvatarState(cid, 0.05 * seq, Pose(position), seq=seq)
    server.ingest(ClientUpdate(cid, state, seq))


def test_sent_snapshots_carry_plain_python_values():
    server, inbox = _hall()
    server.tick_once()
    _publish(server, "a", (0.1, 0.0, 1.2), 3)
    server.tick_once()
    sent = [snapshot for box in inbox.values() for snapshot in box]
    assert len(sent) == 3
    for snapshot in sent:
        assert type(snapshot.tick) is int
        assert type(snapshot.cached_size_bytes) is int
        assert type(snapshot.full) is bool
        assert type(snapshot.server_time) is float
        uncached = ServerSnapshot(snapshot.tick, snapshot.server_time,
                                  snapshot.states, snapshot.removed)
        assert snapshot.cached_size_bytes == uncached.size_bytes
    assert [(s.tick, s.full) for s in inbox["b"]] == [(0, True), (1, False)]


def test_subscriber_with_nothing_to_send_or_remove_gets_no_snapshot():
    server, inbox = _hall()
    server.tick_once()
    # c sees no one; a and b open with each other's keyframe.
    assert [len(inbox[cid]) for cid in "abc"] == [1, 1, 0]

    server.tick_once()  # nothing changed: nobody is sent anything
    assert [len(inbox[cid]) for cid in "abc"] == [1, 1, 0]

    # b walks out of a's radius: each is sent the other's removal only,
    # and c still nothing.
    _publish(server, "b", (10.0, 0.0, 1.2), 3)
    server.tick_once()
    assert [len(inbox[cid]) for cid in "abc"] == [2, 2, 0]
    for cid, gone in (("a", "b"), ("b", "a")):
        removal = inbox[cid][-1]
        assert removal.states == [] and removal.removed == [gone]
        assert removal.cached_size_bytes == HEADER_BYTES + 8


def test_server_snapshot_has_slots():
    snapshot = ServerSnapshot(0, 0.0)
    with pytest.raises(AttributeError):
        snapshot.undeclared = 1
    snapshot.trace = {}
    assert snapshot.trace == {} and snapshot.size_bytes == HEADER_BYTES
