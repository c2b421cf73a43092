"""Unit tests for the VR classroom layout and shard planning."""

import numpy as np
import pytest

from repro.cloud.layout import VRClassroomLayout
from repro.cloud.scaling import ShardPlanner


def test_layout_assigns_unique_seats():
    layout = VRClassroomLayout(seats_per_row=5)
    poses = [layout.assign_seat(f"u{i}") for i in range(12)]
    positions = np.array([p.position for p in poses])
    # All distinct.
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            assert np.linalg.norm(positions[i] - positions[j]) > 0.1
    assert layout.seated_count == 12


def test_layout_reassignment_is_stable():
    layout = VRClassroomLayout()
    first = layout.assign_seat("alice")
    second = layout.assign_seat("alice")
    assert np.allclose(first.position, second.position)
    assert layout.seated_count == 1


def test_layout_seats_face_the_stage():
    layout = VRClassroomLayout(seats_per_row=10)
    for index in (0, 7, 25):
        pose = layout.seat_pose(index)
        from repro.sensing.pose import quat_rotate
        forward = quat_rotate(pose.orientation, np.array([1.0, 0.0, 0.0]))
        to_stage = layout.stage_center - pose.position
        to_stage /= np.linalg.norm(to_stage)
        assert float(np.dot(forward[:2], to_stage[:2])) > 0.99


def test_layout_stage_holds_speakers_apart_from_seats():
    layout = VRClassroomLayout()
    stage_pose = layout.assign_stage("prof")
    assert np.linalg.norm(stage_pose.position) < 1.0
    layout.assign_seat("student")
    assert layout.seated_count == 1


def test_layout_rows_grow_outward():
    layout = VRClassroomLayout(seats_per_row=4, first_row_radius_m=4.0,
                               row_spacing_m=2.0)
    front = np.linalg.norm(layout.seat_pose(0).position)
    back = np.linalg.norm(layout.seat_pose(4).position)  # second row
    assert back == pytest.approx(front + 2.0, abs=0.2)


def test_layout_validation():
    with pytest.raises(ValueError):
        VRClassroomLayout(seats_per_row=0)
    with pytest.raises(ValueError):
        VRClassroomLayout(row_spacing_m=0.0)
    with pytest.raises(ValueError):
        VRClassroomLayout().seat_pose(-1)


def test_shard_planner_counts():
    planner = ShardPlanner(shard_capacity=100, replicated_entities=2)
    assert planner.n_shards(0) == 0
    assert planner.n_shards(98) == 1
    assert planner.n_shards(99) == 2
    assert planner.n_shards(980) == 10


def test_shard_visibility_tradeoff():
    planner = ShardPlanner(shard_capacity=500)
    assert planner.peer_visibility_fraction(100) == 1.0
    assert planner.peer_visibility_fraction(5000) < 0.2


def test_shard_sizes_match_actual_assignment():
    """Dealing n users round-robin over the planned shards fills them
    exactly as ``shard_sizes`` says, within one user of each other."""
    planner = ShardPlanner(shard_capacity=10, replicated_entities=0)
    for n in (1, 9, 10, 11, 25, 31):
        shards = planner.n_shards(n)
        counts = [0] * shards
        for i in range(n):
            counts[i % shards] += 1
        assert planner.shard_sizes(n) == counts
        assert max(counts) - min(counts) <= 1
    assert len(planner.shard_sizes(25)) == 3
    assert planner.shard_sizes(0) == []


def test_shard_visibility_uses_actual_shard_sizes():
    """Regression: just above one-shard capacity the fraction was wrong.

    With capacity 10 and 11 users, round-robin yields shards of 6 and 5 —
    not the 5.5-user mean shard the old formula assumed.  Per-user mean
    visibility is sum(s*(s-1)) / (n*(n-1)) over the actual sizes.
    """
    planner = ShardPlanner(shard_capacity=10, replicated_entities=0)
    n = 11
    fraction = planner.peer_visibility_fraction(n)
    assert fraction == pytest.approx((6 * 5 + 5 * 4) / (n * (n - 1)))
    # The mean-occupancy shortcut reported (5.5 - 1) / 10 = 0.45.  The
    # per-user mean is strictly higher (s*(s-1) is convex, and more users
    # sit in the larger shard), so equality means the bug came back.
    assert fraction > 0.45


def test_shard_validation():
    with pytest.raises(ValueError):
        ShardPlanner(shard_capacity=1)
    with pytest.raises(ValueError):
        ShardPlanner(replicated_entities=-1)
    with pytest.raises(ValueError):
        ShardPlanner().n_shards(-1)
