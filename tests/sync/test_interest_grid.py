"""Spatial-hash-grid interest management: unit and equivalence tests.

The grid must be an invisible optimization: for every configuration it
returns exactly the sets the original O(N) linear scan
(:func:`repro.sync.interest.naive_relevant`) returned.  The equivalence
tests are marked ``interest_equivalence`` so CI can run just them
(``pytest -m interest_equivalence``) without the benchmark sweep; they
are part of tier-1 by default.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sync.interest import (
    BroadcastInterest,
    InterestConfig,
    InterestManager,
    SpatialHashGrid,
    naive_relevant,
)


# -- grid structure ----------------------------------------------------------


def test_grid_buckets_points_by_cell():
    positions = {
        "a": np.array([0.1, 0.1, 0.1]),
        "b": np.array([0.2, 0.2, 0.2]),   # same cell as a
        "c": np.array([5.0, 0.0, 0.0]),   # different cell
    }
    grid = SpatialHashGrid.from_positions(positions, cell_size=1.0)
    assert len(grid) == 3
    assert grid.n_cells == 2


def test_grid_candidates_cover_radius():
    rng = np.random.default_rng(7)
    positions = {f"p{i}": rng.uniform(-30, 30, size=3) for i in range(200)}
    radius = 4.0
    grid = SpatialHashGrid.from_positions(positions, cell_size=radius)
    ids = grid.ids
    for query in rng.uniform(-30, 30, size=(20, 3)):
        candidates = {ids[i] for i in grid.candidate_indices(query)}
        for pid, pos in positions.items():
            if np.linalg.norm(pos - query) <= radius:
                assert pid in candidates
    # ...and the candidate block is far smaller than the full world.
    assert len(grid.candidate_indices(np.zeros(3))) < len(positions)


def test_grid_empty_world():
    grid = SpatialHashGrid.from_positions({}, cell_size=2.0)
    assert len(grid) == 0
    assert grid.candidate_indices(np.zeros(3)).size == 0


def test_grid_rejects_bad_cell_size():
    with pytest.raises(ValueError):
        SpatialHashGrid.from_positions({}, cell_size=0.0)


# -- batch API ---------------------------------------------------------------


def test_relevant_batch_defaults_to_all_entities():
    manager = InterestManager(InterestConfig(radius_m=2.5, max_entities=100))
    positions = {f"p{i}": np.array([i * 1.0, 0.0, 0.0]) for i in range(5)}
    batch = manager.relevant_batch(positions)
    assert set(batch) == set(positions)
    assert batch["p0"] == {"p1", "p2"}


def test_relevant_batch_supports_disembodied_subjects():
    manager = InterestManager(InterestConfig(radius_m=1.5, max_entities=10))
    positions = {f"p{i}": np.array([i * 1.0, 0.0, 0.0]) for i in range(4)}
    batch = manager.relevant_batch(
        positions, {"spectator": np.array([0.5, 0.0, 0.0])}
    )
    assert batch == {"spectator": {"p0", "p1", "p2"}}


def test_relevant_batch_tracks_pairs_scanned():
    manager = InterestManager(InterestConfig(radius_m=1.0, max_entities=5))
    # Two clusters 100 m apart: each subject only scans its own cluster.
    positions = {}
    for i in range(10):
        positions[f"a{i}"] = np.array([i * 0.1, 0.0, 0.0])
        positions[f"b{i}"] = np.array([100.0 + i * 0.1, 0.0, 0.0])
    manager.relevant_batch(positions)
    n = len(positions)
    assert 0 < manager.last_pairs_scanned < n * n


def test_out_of_range_subject_cell_raises_instead_of_aliasing():
    """Subject cells are packed into 21-bit fields per axis.  A cell
    coordinate of 2^20 carries into the next field and would share a
    packed cell with an unrelated subject, which then silently loses the
    neighbour :func:`naive_relevant` finds."""
    edge = float(1 << 20)
    config = InterestConfig(radius_m=1.0, max_entities=8)
    positions = {
        "far": np.array([0.5, 0.5, edge + 0.5]),
        "low": np.array([0.5, 1.5, -edge + 0.5]),
        "mate": np.array([0.5, 1.5, -edge + 0.9]),
    }
    manager = InterestManager(config)
    with pytest.raises(ValueError, match="range"):
        manager.relevant_batch(positions)
    # The lowest packable cell is still accepted, and still exact.
    inside = {k: v for k, v in positions.items() if k != "far"}
    got = manager.relevant_batch(inside)
    for subject_id, position in inside.items():
        assert got[subject_id] == naive_relevant(
            config, subject_id, position, inside)
    assert got["low"] == {"mate"}


def test_broadcast_batch_matches_single_subject():
    baseline = BroadcastInterest()
    positions = {f"p{i}": np.zeros(3) for i in range(6)}
    batch = baseline.relevant_batch(positions)
    for pid in positions:
        assert batch[pid] == baseline.relevant(pid, positions[pid], positions)
    assert baseline.last_pairs_scanned == 36


# -- grid/naive equivalence --------------------------------------------------


def _random_scenario(rng):
    n = int(rng.integers(0, 60))
    radius = float(rng.uniform(0.5, 30.0))
    cap = int(rng.integers(1, 12))
    scale = float(rng.choice([2.0, 10.0, 40.0]))
    positions = {f"p{i}": rng.uniform(-scale, scale, size=3) for i in range(n)}
    if n >= 2 and rng.random() < 0.3:
        # Coincident entities exercise distance-tie breaking by id.
        positions[f"p{n - 1}"] = positions["p0"].copy()
    always = frozenset(
        f"p{i}" for i in range(n) if rng.random() < 0.1
    )
    if rng.random() < 0.2:
        always = always | frozenset({"ghost-not-in-world"})
    config = InterestConfig(radius, cap, always)
    subjects = dict(positions)
    if rng.random() < 0.5:
        subjects["spectator"] = rng.uniform(-scale, scale, size=3)
    return config, positions, subjects


@pytest.mark.interest_equivalence
def test_grid_matches_naive_across_randomized_scenarios():
    """120 randomized scenarios; every subject's set must be identical."""
    rng = np.random.default_rng(20220707)
    for scenario in range(120):
        config, positions, subjects = _random_scenario(rng)
        manager = InterestManager(config)
        batch = manager.relevant_batch(positions, subjects)
        assert set(batch) == set(subjects)
        for subject_id, point in subjects.items():
            expected = naive_relevant(config, subject_id, point, positions)
            assert batch[subject_id] == expected, (
                f"scenario {scenario}: subject {subject_id} "
                f"grid={batch[subject_id]} naive={expected}"
            )


@pytest.mark.interest_equivalence
def test_single_subject_wrapper_matches_naive():
    rng = np.random.default_rng(4)
    for _ in range(30):
        config, positions, _subjects = _random_scenario(rng)
        manager = InterestManager(config)
        for subject_id in list(positions)[:5]:
            assert manager.relevant(
                subject_id, positions[subject_id], positions
            ) == naive_relevant(config, subject_id, positions[subject_id], positions)


@pytest.mark.interest_equivalence
@given(
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.5, max_value=25.0),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_grid_matches_naive_hypothesis(n, radius, cap, seed):
    rng = np.random.default_rng(seed)
    positions = {f"p{i}": rng.uniform(-15, 15, size=3) for i in range(n)}
    always = frozenset({"p0"}) if n > 2 else frozenset()
    config = InterestConfig(radius, cap, always)
    manager = InterestManager(config)
    batch = manager.relevant_batch(positions)
    for subject_id in positions:
        assert batch[subject_id] == naive_relevant(
            config, subject_id, positions[subject_id], positions
        )
