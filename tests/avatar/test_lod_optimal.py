"""Tests for the exact LOD knapsack and its comparison with the greedy."""

import numpy as np
import pytest

from repro.avatar.lod import (
    LOD_LEVELS,
    select_lod,
    total_triangles,
)
from tests.oracles.lod import select_lod_optimal


def weighted_quality(avatars, assignment):
    # Greedy may omit avatars that no longer fit the budget (they render
    # as nothing): zero quality contribution.
    return sum(
        (importance / (1.0 + distance)) * assignment[avatar_id].quality
        for avatar_id, distance, importance in avatars
        if avatar_id in assignment
    )


def test_optimal_assigns_every_avatar_within_budget():
    avatars = [(f"a{i}", float(i), 0.5) for i in range(6)]
    budget = 300_000
    assignment = select_lod_optimal(avatars, budget)
    assert len(assignment) == 6
    assert total_triangles(assignment) <= budget + 1000 * 6  # ceil slack


def test_optimal_matches_greedy_when_budget_is_huge():
    avatars = [(f"a{i}", 1.0 + i, 0.5) for i in range(4)]
    budget = 10_000_000
    optimal = select_lod_optimal(avatars, budget)
    assert all(level.name == "photoreal" for level in optimal.values())


def test_optimal_never_worse_than_greedy():
    rng = np.random.default_rng(0)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        avatars = [
            (f"a{i}", float(rng.uniform(0.5, 20)), float(rng.uniform(0.2, 1.0)))
            for i in range(n)
        ]
        budget = int(rng.integers(n * 3_000, n * 60_000))
        greedy = select_lod(avatars, budget)
        try:
            optimal = select_lod_optimal(avatars, budget)
        except ValueError:
            continue  # infeasible at this budget
        assert (
            weighted_quality(avatars, optimal)
            >= weighted_quality(avatars, greedy) - 1e-9
        )


def test_optimal_finds_better_solution_greedy_misses():
    """Greedy gives the top-ranked avatar the best affordable tier and
    starves the rest; the DP balances."""
    avatars = [("star", 0.0, 1.0), ("b", 1.0, 0.9), ("c", 1.0, 0.9)]
    budget = 45_000  # one "high" (40k) or three "medium" (12k each)
    greedy = select_lod(avatars, budget)
    optimal = select_lod_optimal(avatars, budget)
    assert weighted_quality(avatars, optimal) > weighted_quality(avatars, greedy)


def test_optimal_infeasible_raises():
    avatars = [(f"a{i}", 1.0, 0.5) for i in range(3)]
    with pytest.raises(ValueError):
        select_lod_optimal(avatars, triangle_budget=100)  # < 3 billboards


def test_optimal_empty_and_validation():
    assert select_lod_optimal([], 1000) == {}
    with pytest.raises(ValueError):
        select_lod_optimal([], -1)
    with pytest.raises(ValueError):
        select_lod_optimal([], 1000, granularity=0)
