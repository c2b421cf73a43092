"""Cell-indexed interest management: unit and equivalence tests.

The cell index must be an invisible optimization: for every
configuration it returns exactly the sets the original O(N) linear scan
(:func:`repro.sync.interest.naive_relevant`) returned, and a position it
cannot index is an error, never a wrong answer or a wrong pair count.
The equivalence tests are marked ``interest_equivalence`` so CI can run
just them (``pytest -m interest_equivalence``) without the benchmark
sweep; they are part of tier-1 by default.  A query of at most
``DENSE_MAX_PAIRS`` pairs is answered densely, a larger one through the
cell index; the equivalence tests run on both paths.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.avatar.state import AvatarState
from repro.sensing.pose import Pose
from repro.sync import interest
from repro.sync.delta import WorldState
from repro.sync.interest import (
    BroadcastInterest,
    InterestConfig,
    InterestManager,
    naive_relevant,
)


PATHS = ("indexed", "dense")


@contextlib.contextmanager
def _on_path(path):
    """Every query on the cell index, or every query dense, by moving the
    size threshold."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interest, "DENSE_MAX_PAIRS",
                      0 if path == "indexed" else 1 << 62)
        yield


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
    # The empty world scans nothing and answers nothing.
    assert manager.relevant_batch({}) == {}
    assert manager.last_pairs_scanned == 0


def test_out_of_range_subject_cell_raises_instead_of_aliasing():
    """Cell keys are mixed-radix over the box around every entity and
    subject cell, so cells far from the origin are exact as long as the
    box fits the key arithmetic; a box that does not is an error, never a
    cell that aliases another and silently loses a neighbour."""
    edge = float(1 << 20)
    config = InterestConfig(radius_m=1.0, max_entities=8)
    positions = {
        "far": np.array([0.5, 0.5, edge + 0.5]),
        "low": np.array([0.5, 1.5, -edge + 0.5]),
        "mate": np.array([0.5, 1.5, -edge + 0.9]),
    }
    # A box of 2^22 cells a side holds 2^66 keys: too many for int64.
    wide = float(1 << 21)
    corners = {
        "low": np.array([-wide, -wide, -wide]),
        "high": np.array([wide, wide, wide]),
    }
    for path in PATHS:
        with _on_path(path):
            manager = InterestManager(config)
            got = manager.relevant_batch(positions)
            for subject_id, position in positions.items():
                assert got[subject_id] == naive_relevant(
                    config, subject_id, position, positions), path
            assert got["low"] == {"mate"}, path
            assert got["far"] == set(), path
            with pytest.raises(ValueError, match="2\\^62"):
                manager.relevant_batch(corners)
            points = np.stack(list(corners.values()))
            with pytest.raises(ValueError, match="2\\^62"):
                manager.pairs_scanned(points, points)
            # Cells past 2^61 are an error even when the box around them
            # is small: int64 keys cannot offset them safely.
            cluster = np.array([[5e18, 0.5, 0.5], [5e18 + 1024.0, 0.5, 0.5]])
            with pytest.raises(ValueError, match="2\\^62"):
                manager.relevant_indices_batch(
                    cluster, cluster, np.array([0, 1]), np.arange(2))
            with pytest.raises(ValueError, match="2\\^62"):
                manager.pairs_scanned(cluster, cluster)


@pytest.mark.interest_equivalence
@pytest.mark.parametrize("far", [np.nan, np.inf, 1e19, 4e18])
def test_unindexable_position_raises_for_query_count_and_reuse(far):
    """A non-finite position, or a cell beyond what the keys can hold, is
    the same error for the query, for the pair count the server charges,
    and for the reuse test of the server's tick, wherever the entity is
    relative to the subjects."""
    config = InterestConfig(radius_m=1.0, max_entities=8)
    points = np.array([[0.5, 0.5, 0.5], [0.6, 0.5, 0.5], [far, 0.5, 0.5]])
    for path in PATHS:
        with _on_path(path):
            manager = InterestManager(config)
            with pytest.raises(ValueError, match="finite"):
                manager.relevant_indices_batch(
                    points, points[:2], np.array([0, 1]), np.arange(3))
            with pytest.raises(ValueError, match="finite"):
                manager.pairs_scanned(points, points[:2])
            # The tick's reuse: "c" moves out to ``far`` while the subjects
            # stay.
            world = WorldState()
            rows = points[:2].tolist() + [[0.7, 0.5, 0.5]]
            for pid, row in zip("abc", rows):
                world.apply(
                    AvatarState(pid, 1.0, Pose(np.array(row)), seq=1))
            manager.relevant_slots(world, ["a", "b"])
            world.apply(AvatarState("c", 2.0, Pose(points[2]), seq=2))
            with pytest.raises(ValueError, match="finite") as raised:
                manager.relevant_slots(world, ["a", "b"])
            assert any(entry.name == "_stale_rows"
                       for entry in raised.traceback)


def test_broadcast_batch_matches_single_subject():
    baseline = BroadcastInterest()
    positions = {f"p{i}": np.zeros(3) for i in range(6)}
    batch = baseline.relevant_batch(positions)
    assert baseline.last_pairs_scanned == 36
    for pid in positions:
        assert batch[pid] == baseline.relevant(pid, positions[pid], positions)
        assert batch[pid] == set(positions) - {pid}
    # The indices core the server calls: every row but the subject's own
    # (a subject that is not an entity, row -1, sees all of them).
    points = np.zeros((6, 3))
    subject_self = np.array([0, 3, -1], dtype=np.int64)
    offsets, flat = baseline.relevant_indices_batch(
        points, np.zeros((3, 3)), subject_self,
        np.arange(6, dtype=np.int64))
    rows = [flat[offsets[i]:offsets[i + 1]].tolist() for i in range(3)]
    assert rows == [[1, 2, 3, 4, 5], [0, 1, 2, 4, 5], [0, 1, 2, 3, 4, 5]]
    assert baseline.last_pairs_scanned == 3 * 6


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
    config = InterestConfig(radius, cap)
    subjects = dict(positions)
    if rng.random() < 0.5:
        subjects["spectator"] = rng.uniform(-scale, scale, size=3)
    return config, positions, subjects


def _tie_edge_scenarios():
    """Fixed inputs at the edges of the nearest-k cut, with ids whose
    lexicographic order is not their insertion order.

    The crowded one has every subject in one cell (side = radius = 10)
    and cap 3.  Spectator ``s-over`` sits 0.25 from one entity and 0.5
    from six tied ones, so the k-th distance splits the tie by id;
    ``s-full`` has exactly three entities in range and ``s-few`` one,
    both in the same cell as the over-cap rows; every entity is a
    subject too, with its own entity in its block.  The small ones hold
    no more entities than the cap, so a block is no larger than k."""
    corner = np.array([1.0, 1.0, 1.0])
    crowd = [corner + [0.25, 0.0, 0.0]] + [
        corner + sign * 0.5 * axis for axis in np.eye(3) for sign in (1, -1)]
    far = [np.array(p) for p in ((9.2, 9.0, 1.0), (9.0, 9.2, 1.0),
                                 (9.0, 9.0, 1.2), (9.0, 1.0, 8.8))]
    positions = {f"e{i}": p for i, p in enumerate(crowd + far, start=5)}
    subjects = dict(positions, **{
        "s-over": corner, "s-full": np.array([9.0, 9.0, 1.0]),
        "s-few": np.array([9.0, 1.0, 9.0])})
    # The crowded shapes, checked so that a changed number cannot lose
    # them silently.
    dist = {subject: sorted(d for entity, p in positions.items()
                            if entity != subject
                            and (d := np.linalg.norm(p - point)) <= 10.0)
            for subject, point in subjects.items()}
    assert len(dist["s-over"]) == 7 and dist["s-over"][2:4] == [0.5, 0.5]
    assert len(dist["s-full"]) == 3 and len(dist["s-few"]) == 1
    assert {tuple(np.floor(p / 10.0)) for p in subjects.values()} \
        == {(0.0, 0.0, 0.0)}
    small = {f"e{i}": np.array([float(i), 0.5, 0.5]) for i in (8, 9, 10)}
    return [(InterestConfig(10.0, 3), positions, subjects),
            (InterestConfig(10.0, 3), small,
             dict(small, spectator=np.zeros(3))),
            (InterestConfig(10.0, 5), small, small)]


@pytest.mark.interest_equivalence
def test_grid_matches_naive_across_randomized_scenarios():
    """120 randomized scenarios and the tie-edge inputs; every subject's
    set must be identical."""
    for path in PATHS:
        with _on_path(path):
            rng = np.random.default_rng(20220707)
            scenarios = [_random_scenario(rng) for _ in range(120)] \
                + _tie_edge_scenarios()
            for scenario, (config, positions, subjects) in enumerate(
                    scenarios):
                manager = InterestManager(config)
                batch = manager.relevant_batch(positions, subjects)
                assert set(batch) == set(subjects)
                for subject_id, point in subjects.items():
                    expected = naive_relevant(config, subject_id, point,
                                              positions)
                    assert batch[subject_id] == expected, (
                        f"{path} scenario {scenario}: subject {subject_id} "
                        f"got={batch[subject_id]} naive={expected}"
                    )


@pytest.mark.interest_equivalence
def test_dense_and_indexed_paths_scan_and_answer_alike():
    """Both paths return the same rows and scan the same pairs, with
    crowded worlds whose subjects are over the cap and tie on distance."""
    rng = np.random.default_rng(24)
    for scenario in range(60):
        n, s = int(rng.integers(1, 90)), int(rng.integers(1, 20))
        config = InterestConfig(float(rng.uniform(0.5, 6.0)),
                                int(rng.integers(1, 10)))
        points = rng.integers(-4, 5, size=(n, 3)).astype(float)
        subject_points = rng.uniform(-5.0, 5.0, size=(s, 3))
        subject_self = np.where(rng.random(s) < 0.5,
                                rng.integers(0, n, size=s), -1)
        ranks = rng.permutation(n)
        answers = {}
        for path in PATHS:
            with _on_path(path):
                manager = InterestManager(config)
                offsets, flat = manager.relevant_indices_batch(
                    points, subject_points, subject_self, ranks)
                rows = [sorted(flat[offsets[i]:offsets[i + 1]].tolist())
                        for i in range(s)]
                pairs = manager.pairs_scanned(points, subject_points)
                assert pairs == manager.last_pairs_scanned, (path, scenario)
                answers[path] = (rows, pairs)
        assert answers["dense"] == answers["indexed"], scenario


def test_dense_threshold_selects_the_path(monkeypatch):
    """A query of exactly ``DENSE_MAX_PAIRS`` pairs never builds the cell
    index, one pair more does, for the query and for the pair count.
    Federated relay queries (at most 1,400 pairs) are dense and the
    2,000-avatar hall's 2,000 x 2,000 query is indexed."""
    assert interest.DENSE_MAX_PAIRS == 8192
    assert 1_400 <= interest.DENSE_MAX_PAIRS < 2_000 * 2_000
    builds = []
    cell_blocks = interest._cell_blocks

    def counted(*args):
        builds.append(len(args[0]) * len(args[1]))
        return cell_blocks(*args)

    monkeypatch.setattr(interest, "_cell_blocks", counted)
    manager = InterestManager(InterestConfig(radius_m=2.0, max_entities=4))
    subject = np.zeros((1, 3))
    for n, built in ((interest.DENSE_MAX_PAIRS, []),
                     (interest.DENSE_MAX_PAIRS + 1,
                      [interest.DENSE_MAX_PAIRS + 1])):
        points = np.random.default_rng(n).uniform(-9.0, 9.0, size=(n, 3))
        builds.clear()
        manager.relevant_indices_batch(
            points, subject, np.array([-1]), np.arange(n))
        assert builds == built, n
        builds.clear()
        assert manager.pairs_scanned(points, subject) \
            == manager.last_pairs_scanned
        assert builds == built, n


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
    config = InterestConfig(radius, cap)
    points = np.array(list(positions.values())).reshape(-1, 3)
    for path in PATHS:
        with _on_path(path):
            manager = InterestManager(config)
            batch = manager.relevant_batch(positions)
            for subject_id in positions:
                assert batch[subject_id] == naive_relevant(
                    config, subject_id, positions[subject_id], positions
                ), path
            # The count the server charges for reused rows is the
            # query's own.
            assert manager.pairs_scanned(points, points) \
                == manager.last_pairs_scanned, path
