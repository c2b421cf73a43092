"""Unit tests for participants and the physical classroom."""

import numpy as np
import pytest

from repro.core.classroom import PhysicalClassroom
from repro.core.participant import Participant
from repro.simkit import Simulator


def test_participant_physical_or_remote_exclusively():
    physical = Participant("a", campus="cwb")
    remote = Participant("b", city="kaist")
    assert not physical.is_remote
    assert remote.is_remote
    with pytest.raises(ValueError):
        Participant("c")
    with pytest.raises(ValueError):
        Participant("d", campus="cwb", city="kaist")


def test_classroom_seats_participants_and_tracks_them():
    sim = Simulator(seed=1)
    room = PhysicalClassroom(sim, "cwb", rows=2, cols=2)
    seat = room.add_participant(Participant("alice", campus="cwb"))
    assert room.seat_map.occupant(seat.seat_id) == "alice"
    assert room.participants == ["alice"]
    assert np.allclose(room.seat_anchor("alice"), seat.position)
    room.start(duration=2.0)
    sim.run()
    # Headset (60 Hz) + room rig (30 Hz) both fed the aggregator.
    assert room.edge.aggregator.poses_ingested > 100
    assert room.edge.aggregator.expressions_ingested > 0
    state = room.edge.aggregator.generate("alice")
    assert state.pose.distance_to(room.trace_of("alice")(sim.now)) < 0.2


def test_classroom_rejects_wrong_campus_and_duplicates():
    sim = Simulator()
    room = PhysicalClassroom(sim, "cwb", rows=1, cols=2)
    with pytest.raises(ValueError):
        room.add_participant(Participant("x", campus="gz"))
    room.add_participant(Participant("alice", campus="cwb"))
    with pytest.raises(ValueError):
        room.add_participant(Participant("alice", campus="cwb"))


def test_classroom_full():
    sim = Simulator()
    room = PhysicalClassroom(sim, "cwb", rows=1, cols=1)
    room.add_participant(Participant("a", campus="cwb"))
    with pytest.raises(RuntimeError):
        room.add_participant(Participant("b", campus="cwb"))


def test_classroom_wifi_contention_grows_with_attendance():
    sim = Simulator()
    room = PhysicalClassroom(sim, "cwb", rows=3, cols=3)
    for i in range(5):
        room.add_participant(Participant(f"s{i}", campus="cwb"))
    assert room.wifi.contenders == 5


def test_classroom_uplink_latency_is_tracked():
    sim = Simulator(seed=2)
    room = PhysicalClassroom(sim, "cwb", rows=2, cols=2)
    room.add_participant(Participant("alice", campus="cwb"))
    room.start(duration=1.0)
    sim.run()
    uplink = room.uplink_budget.tracker("wifi_uplink").summary()
    assert 0.0 < uplink.mean < 0.005  # sub-5ms WiFi uplink in a quiet cell
