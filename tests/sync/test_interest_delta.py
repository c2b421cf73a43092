"""Unit tests for interest management and delta encoding."""

import numpy as np
import pytest

from repro.avatar.state import AvatarState
from repro.sensing.pose import Pose
from repro.sync.delta import WorldState
from repro.sync.interest import BroadcastInterest, InterestConfig, InterestManager
from tests.oracles.delta import DeltaEncoder


def positions_grid(n, spacing=1.0):
    return {
        f"p{i}": np.array([i * spacing, 0.0, 0.0]) for i in range(n)
    }


def test_interest_radius_filter():
    manager = InterestManager(InterestConfig(radius_m=2.5, max_entities=100))
    positions = positions_grid(10)
    relevant = manager.relevant("p0", positions["p0"], positions)
    assert relevant == {"p1", "p2"}


def test_interest_nearest_k_cap():
    manager = InterestManager(InterestConfig(radius_m=100.0, max_entities=3))
    positions = positions_grid(10)
    relevant = manager.relevant("p0", positions["p0"], positions)
    assert relevant == {"p1", "p2", "p3"}


def test_interest_excludes_subject():
    manager = InterestManager()
    positions = positions_grid(3, spacing=0.1)
    relevant = manager.relevant("p1", positions["p1"], positions)
    assert "p1" not in relevant


def test_interest_config_validation():
    with pytest.raises(ValueError):
        InterestConfig(radius_m=0.0)
    with pytest.raises(ValueError):
        InterestConfig(max_entities=0)


def test_relevance_matrix_symmetric_for_grid():
    manager = InterestManager(InterestConfig(radius_m=1.5, max_entities=10))
    positions = positions_grid(5)
    matrix = manager.relevant_batch(positions)
    assert ("p1" in matrix["p0"]) == ("p0" in matrix["p1"])


def test_broadcast_interest_includes_all_but_subject():
    baseline = BroadcastInterest()
    positions = positions_grid(100)
    relevant = baseline.relevant("p0", positions["p0"], positions)
    assert len(relevant) == 99


def make_state(pid, seq, x=0.0):
    return AvatarState(pid, float(seq), Pose(np.array([x, 0.0, 0.0])), seq=seq)


def test_world_state_apply_and_stale_rejection():
    world = WorldState()
    world.apply(make_state("a", 1))
    world.apply(make_state("a", 3))
    world.apply(make_state("a", 2))  # stale
    assert world.entities["a"].seq == 3
    assert len(world) == 1
    assert world.version == 2


def test_world_state_remove():
    world = WorldState()
    world.apply(make_state("a", 0))
    world.remove("a")
    world.remove("a")  # idempotent
    assert len(world) == 0


def test_delta_first_encode_is_full():
    world = WorldState()
    world.apply(make_state("a", 0))
    encoder = DeltaEncoder()
    states, removed, full = encoder.encode("sub", world, {"a"})
    assert full
    assert [s.participant_id for s in states] == ["a"]
    assert removed == []


def test_delta_unchanged_entities_suppressed():
    world = WorldState()
    world.apply(make_state("a", 0))
    encoder = DeltaEncoder(keyframe_interval=1000)
    encoder.encode("sub", world, {"a"})
    states, removed, _full = encoder.encode("sub", world, {"a"})
    assert states == [] and removed == []


def test_delta_changed_entity_included():
    world = WorldState()
    world.apply(make_state("a", 0))
    encoder = DeltaEncoder(keyframe_interval=1000)
    encoder.encode("sub", world, {"a"})
    world.apply(make_state("a", 1, x=2.0))
    states, _removed, full = encoder.encode("sub", world, {"a"})
    assert not full
    assert len(states) == 1 and states[0].seq == 1


def test_delta_removal_when_entity_leaves_interest():
    world = WorldState()
    world.apply(make_state("a", 0))
    world.apply(make_state("b", 0))
    encoder = DeltaEncoder(keyframe_interval=1000)
    encoder.encode("sub", world, {"a", "b"})
    states, removed, _full = encoder.encode("sub", world, {"a"})
    assert removed == ["b"]
    assert states == []


def test_delta_keyframe_interval_forces_full():
    world = WorldState()
    world.apply(make_state("a", 0))
    encoder = DeltaEncoder(keyframe_interval=3)
    encoder.encode("sub", world, {"a"})          # full (first)
    fulls = []
    for _ in range(7):
        _s, _r, full = encoder.encode("sub", world, {"a"})
        fulls.append(full)
    assert any(fulls)  # periodic keyframes appear
    assert not all(fulls)


def test_delta_world_deleted_entity_emits_removal():
    # An entity deleted from the world while still in the relevant set
    # must be announced as removed, not silently skipped leaving a ghost.
    world = WorldState()
    world.apply(make_state("a", 0))
    world.apply(make_state("b", 0))
    encoder = DeltaEncoder(keyframe_interval=1000)
    encoder.encode("sub", world, {"a", "b"})
    world.remove("b")
    states, removed, _full = encoder.encode("sub", world, {"a", "b"})
    assert removed == ["b"]
    assert states == []
    assert encoder.acked_seq("sub", "b") is None
    # Re-appearing later is a fresh (full) send, not a stale suppression.
    world.apply(make_state("b", 5))
    states, removed, _full = encoder.encode("sub", world, {"a", "b"})
    assert [s.participant_id for s in states] == ["b"]
    assert removed == []


def test_delta_never_seen_missing_entity_not_removed():
    # A relevant id that is missing from the world and was never sent to
    # the subscriber produces no spurious removal.
    world = WorldState()
    world.apply(make_state("a", 0))
    encoder = DeltaEncoder(keyframe_interval=1000)
    encoder.encode("sub", world, {"a"})
    states, removed, _full = encoder.encode("sub", world, {"a", "phantom"})
    assert removed == []
    assert states == []


def test_delta_forget_subscriber():
    world = WorldState()
    world.apply(make_state("a", 0))
    encoder = DeltaEncoder()
    encoder.encode("sub", world, {"a"})
    assert encoder.acked_seq("sub", "a") == 0
    encoder.forget("sub")
    assert encoder.acked_seq("sub", "a") is None


def test_delta_validation():
    with pytest.raises(ValueError):
        DeltaEncoder(keyframe_interval=0)
