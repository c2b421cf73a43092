"""Cross-cutting property-based tests on core invariants.

These complement the per-module unit tests with hypothesis-driven checks
of the invariants the system's correctness rests on: delta-encoding
round-trips, interest-set bounds, assignment optimality, and geometric
sanity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.avatar.interpolation import SnapshotBuffer
from repro.avatar.state import AvatarState
from repro.edge.seats import (
    Seat,
    assign_seats_first_fit,
    assign_seats_hungarian,
    total_displacement,
)
from repro.net.geo import GeoPoint, haversine_km
from repro.sensing.pose import Pose, quat_from_axis_angle, quat_rotate
from repro.sync.delta import WorldState
from repro.sync.interest import InterestConfig, InterestManager
from tests.oracles.delta import DeltaEncoder

# -- delta encoding ---------------------------------------------------------


@st.composite
def world_histories(draw):
    """A sequence of (entity, seq) updates plus relevance sets."""
    n_entities = draw(st.integers(min_value=1, max_value=6))
    n_ticks = draw(st.integers(min_value=1, max_value=12))
    ticks = []
    for _t in range(n_ticks):
        updates = draw(st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_entities - 1),
                st.floats(min_value=-5, max_value=5),
            ),
            max_size=4,
        ))
        relevant = draw(st.sets(
            st.integers(min_value=0, max_value=n_entities - 1), max_size=n_entities
        ))
        ticks.append((updates, relevant))
    return n_entities, ticks


@given(world_histories())
@settings(max_examples=60, deadline=None)
def test_delta_roundtrip_reconstructs_subscriber_view(history):
    """Applying every delta reproduces exactly the relevant world slice."""
    n_entities, ticks = history
    world = WorldState()
    encoder = DeltaEncoder(keyframe_interval=4)
    seqs = [0] * n_entities
    replica = {}
    for updates, relevant_idx in ticks:
        for entity, x in updates:
            seqs[entity] += 1
            world.apply(AvatarState(
                f"p{entity}", 0.0, Pose(np.array([x, 0.0, 0.0])),
                seq=seqs[entity],
            ))
        relevant = {f"p{i}" for i in relevant_idx}
        states, removed, _full = encoder.encode("sub", world, relevant)
        for state in states:
            replica[state.participant_id] = state.seq
        for entity_id in removed:
            replica.pop(entity_id, None)
        # Invariant: replica == the relevant slice of the world, at the
        # newest sequence numbers.
        expected = {
            pid: world.entities[pid].seq
            for pid in relevant
            if pid in world.entities
        }
        assert replica == expected


# -- interest management ----------------------------------------------------


@given(
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.5, max_value=50.0),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=42),
)
@settings(max_examples=60, deadline=None)
def test_interest_set_bounds(n, radius, cap, seed):
    rng = np.random.default_rng(seed)
    positions = {
        f"p{i}": rng.uniform(-20, 20, size=3) for i in range(n)
    }
    manager = InterestManager(InterestConfig(radius, cap))
    for subject in positions:
        relevant = manager.relevant(subject, positions[subject], positions)
        assert subject not in relevant
        assert relevant <= set(positions)
        assert len(relevant) <= cap
        for entity in relevant:
            distance = np.linalg.norm(positions[entity] - positions[subject])
            assert distance <= radius + 1e-9


# -- seat assignment ----------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=99),
)
@settings(max_examples=40, deadline=None)
def test_hungarian_never_worse_than_first_fit(n_avatars, extra_seats, seed):
    rng = np.random.default_rng(seed)
    incoming = {
        f"p{i}": rng.uniform(0, 10, size=3) for i in range(n_avatars)
    }
    vacant = [
        Seat(f"s{i}", rng.uniform(0, 10, size=3))
        for i in range(n_avatars + extra_seats)
    ]
    optimal = total_displacement(incoming, assign_seats_hungarian(incoming, vacant))
    naive = total_displacement(incoming, assign_seats_first_fit(incoming, vacant))
    assert optimal <= naive + 1e-9
    # Every avatar got a distinct seat.
    assignment = assign_seats_hungarian(incoming, vacant)
    seats_used = [seat.seat_id for seat in assignment.values()]
    assert len(seats_used) == len(set(seats_used)) == n_avatars


# -- snapshot buffer -------------------------------------------------------------


@given(st.lists(
    st.tuples(st.floats(min_value=0, max_value=100),
              st.floats(min_value=-50, max_value=50)),
    min_size=1, max_size=30,
))
@settings(max_examples=60, deadline=None)
def test_snapshot_buffer_time_ordering_invariant(pushes):
    buffer = SnapshotBuffer(interpolation_delay=0.1, max_extrapolation=0.2)
    for t, x in pushes:
        buffer.push(AvatarState("p", t, Pose(np.array([x, 0.0, 0.0]))))
    times = [s.time for s in buffer._snapshots]
    assert times == sorted(times)
    assert len(set(times)) == len(times)
    newest = buffer.latest.time
    # Sampling never reads beyond newest + the extrapolation clamp.
    sample = buffer.sample(newest + 100.0)
    assert sample.time <= newest + 0.2 + 1e-9


# -- geometry -----------------------------------------------------------------


@given(
    st.floats(min_value=-90, max_value=90),
    st.floats(min_value=-180, max_value=180),
    st.floats(min_value=-90, max_value=90),
    st.floats(min_value=-180, max_value=180),
)
@settings(max_examples=80, deadline=None)
def test_haversine_metric_properties(lat1, lon1, lat2, lon2):
    a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
    d = haversine_km(a, b)
    assert 0.0 <= d <= 20_015.1  # half the circumference + epsilon
    assert haversine_km(b, a) == pytest.approx(d)
    assert haversine_km(a, a) == 0.0


@given(
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
)
@settings(max_examples=80, deadline=None)
def test_quaternion_rotation_preserves_length(angle, x, y, z):
    q = quat_from_axis_angle((1.0, 2.0, -0.5), angle)
    v = np.array([x, y, z])
    rotated = quat_rotate(q, v)
    assert np.linalg.norm(rotated) == pytest.approx(np.linalg.norm(v), abs=1e-9)
