"""Unit and integration tests for the aggregator and edge server."""

import numpy as np
import pytest

from repro.edge.aggregator import SensorAggregator
from repro.edge.seats import SeatMap
from repro.edge.server import EdgeConfig, EdgeServer
from repro.sensing.expression import ExpressionCapture
from repro.sensing.headset import HeadsetTracker, PoseSample
from repro.sensing.pose import Pose
from repro.simkit import Simulator
from repro.workload.traces import SeatedMotion


def test_aggregator_fuses_and_generates():
    sim = Simulator(seed=1)
    aggregator = SensorAggregator(sim)
    trace = SeatedMotion((1.0, 1.0, 1.2), sim.rng.stream("t"))
    tracker = HeadsetTracker(sim, "alice", trace, rate_hz=50.0,
                             on_sample=aggregator.ingest_pose)
    tracker.run(duration=2.0)
    sim.run()
    state = aggregator.generate("alice")
    assert state is not None
    assert state.participant_id == "alice"
    assert state.pose.distance_to(trace(sim.now)) < 0.1
    assert state.seq == 0
    assert aggregator.generate("alice").seq == 1


def test_aggregator_unknown_participant_none():
    sim = Simulator()
    aggregator = SensorAggregator(sim)
    assert aggregator.generate("ghost") is None


def test_aggregator_expression_attached():
    sim = Simulator(seed=2)
    aggregator = SensorAggregator(sim)
    aggregator.ingest_pose(PoseSample(time=0.0, device_id="a", pose=Pose(), seq=0))
    capture = ExpressionCapture(sim.rng.stream("expr"))
    aggregator.ingest_expression("a", capture.capture(0.0, "smile"))
    state = aggregator.generate("a")
    assert state.expression is not None
    assert aggregator.expressions_ingested == 1


def test_aggregator_drops_out_of_order_quietly():
    sim = Simulator()
    aggregator = SensorAggregator(sim)
    aggregator.ingest_pose(PoseSample(time=1.0, device_id="a", pose=Pose(), seq=0))
    aggregator.ingest_pose(PoseSample(time=0.5, device_id="a", pose=Pose(), seq=1))
    assert aggregator.poses_ingested == 1


def test_aggregator_drop_track():
    sim = Simulator()
    aggregator = SensorAggregator(sim)
    aggregator.ingest_pose(PoseSample(time=0.0, device_id="a", pose=Pose(), seq=0))
    assert aggregator.tracked == ["a"]
    aggregator.drop("a")
    assert aggregator.tracked == []


def make_edge(sim, name, rows=3, cols=3, **config_kwargs):
    return EdgeServer(
        sim, name, SeatMap.grid(rows=rows, cols=cols),
        config=EdgeConfig(**config_kwargs),
        attention_target=np.array([5.0, 0.0, 0.0]),
    )


def test_edge_replicates_to_peer_with_seat_placement():
    sim = Simulator(seed=3)
    edge_a = make_edge(sim, "cwb")
    edge_b = make_edge(sim, "gz")
    anchor = np.array([2.0, 2.0, 0.0])
    edge_a.add_peer(
        "gz",
        lambda state: sim.call_later(
            0.004, lambda s=state: edge_b.receive_remote_state(s, anchor)
        ),
    )
    trace = SeatedMotion((2.0, 2.0, 1.2), sim.rng.stream("alice"))
    tracker = HeadsetTracker(sim, "alice", trace, rate_hz=50.0,
                             on_sample=edge_a.aggregator.ingest_pose)
    tracker.run(duration=3.0)
    edge_a.run(duration=3.0)
    sim.run()
    assert edge_a.states_sent > 0
    assert edge_b.states_received > 0
    assert "alice" in edge_b.displayed_avatars
    seat = edge_b.seat_of("alice")
    assert seat is not None
    assert edge_b.seat_map.occupant(seat.seat_id) == "alice"
    scene = edge_b.scene_states()
    assert "alice" in scene
    # The displayed avatar sits at the assigned seat, not the raw position.
    assert np.linalg.norm(scene["alice"].pose.position[:2] - seat.position[:2]) < 1.0


def test_edge_inter_site_latency_recorded():
    sim = Simulator(seed=4)
    edge_a = make_edge(sim, "a")
    edge_b = make_edge(sim, "b")
    delay = 0.025
    edge_a.add_peer(
        "b",
        lambda state: sim.call_later(
            delay, lambda s=state: edge_b.receive_remote_state(s, np.zeros(3))
        ),
    )
    trace = SeatedMotion((2, 2, 1.2), sim.rng.stream("p"))
    HeadsetTracker(sim, "p", trace, rate_hz=50.0,
                   on_sample=edge_a.aggregator.ingest_pose).run(duration=2.0)
    edge_a.run(duration=2.0)
    sim.run()
    inter_site = edge_b.budget.tracker("inter_site").summary()
    assert inter_site.mean == pytest.approx(delay, abs=0.01)


def test_edge_no_vacant_seat_avatar_invisible():
    sim = Simulator(seed=5)
    edge = make_edge(sim, "tiny", rows=1, cols=1)
    edge.seat_map.occupy("r0c0", "local-person")
    from repro.avatar.state import AvatarState
    state = AvatarState("remote", sim.now, Pose())
    edge.receive_remote_state(state, np.zeros(3))
    assert edge.displayed_avatars == []
    assert edge.seat_of("remote") is None


def test_edge_remove_remote_frees_seat():
    sim = Simulator(seed=6)
    edge = make_edge(sim, "x")
    from repro.avatar.state import AvatarState
    edge.receive_remote_state(AvatarState("bob", sim.now, Pose()), np.zeros(3))
    assert edge.seat_of("bob") is not None
    before_vacant = edge.seat_map.n_vacant
    edge.remove_remote("bob")
    assert edge.seat_of("bob") is None
    assert edge.seat_map.n_vacant == before_vacant + 1
    assert edge.staleness("bob") == float("inf")


def test_edge_duplicate_peer_rejected():
    sim = Simulator()
    edge = make_edge(sim, "dup")
    edge.add_peer("p", lambda s: None)
    with pytest.raises(ValueError):
        edge.add_peer("p", lambda s: None)
    assert edge.peers == ["p"]


def test_edge_config_validation():
    with pytest.raises(ValueError):
        EdgeConfig(avatar_rate_hz=0)
    with pytest.raises(ValueError):
        EdgeConfig(per_avatar_cost_s=-1)
    with pytest.raises(ValueError):
        EdgeConfig(seat_policy="random")


def test_edge_double_run_rejected():
    sim = Simulator()
    edge = make_edge(sim, "once")
    edge.run(duration=1.0)
    with pytest.raises(RuntimeError):
        edge.run(duration=1.0)


def test_edge_rerun_after_horizon():
    # duration=2.0 is the float-accumulation edge (see
    # test_measurement_windows_reset_between_runs): an uncut last sleep
    # parked the avatar tick past the horizon, so the second run() raised.
    sim = Simulator(seed=5)
    edge = make_edge(sim, "again")
    proc = edge.run(duration=2.0)
    sim.run(until=2.0)
    assert not proc.is_alive
    edge.run(duration=1.0)
    sim.run(until=3.0)
