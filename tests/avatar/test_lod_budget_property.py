"""Property: greedy LOD selection never overruns its triangle budget.

The regression this pins: the greedy loop used to assign the billboard
tier even when the remaining budget was below its 200 triangles, so
``total_triangles(select_lod(...))`` could exceed ``triangle_budget`` by
up to one billboard per avatar.  The property is checked against
``select_lod_optimal`` as the oracle: wherever the exact knapsack finds
a feasible full assignment, greedy must also fit the budget (and can
only be worse in quality, never in feasibility).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.avatar.lod import (
    LOD_LEVELS,
    select_lod,
    total_quality,
    total_triangles,
)
from tests.oracles.lod import select_lod_optimal

avatar_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.05, max_value=1.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=0, max_size=12,
)


def _named(avatars):
    return [(f"a{i}", d, w) for i, (d, w) in enumerate(avatars)]


@settings(max_examples=200, deadline=None)
@given(avatars=avatar_lists, budget=st.integers(min_value=0, max_value=400_000))
def test_greedy_never_overruns_budget(avatars, budget):
    assignment = select_lod(_named(avatars), budget)
    assert total_triangles(assignment) <= budget


@settings(max_examples=200, deadline=None)
@given(avatars=avatar_lists, budget=st.integers(min_value=0, max_value=400_000))
def test_greedy_vs_optimal_oracle(avatars, budget):
    named = _named(avatars)
    greedy = select_lod(named, budget)
    assert total_triangles(greedy) <= budget
    try:
        optimal = select_lod_optimal(named, budget, granularity=100)
    except ValueError:
        # The exact solver proves no feasible full assignment exists, so
        # greedy must have omitted at least one avatar rather than
        # overrun (the old behaviour assigned everyone and blew through).
        assert len(greedy) < len(named) or budget == 0 or not named
        return
    # Feasible: the DP respects the budget too (ceil-discretized costs
    # only over-count, never under-count).
    assert total_triangles(optimal) <= budget
    assert len(optimal) == len(named)


@settings(max_examples=100, deadline=None)
@given(avatars=avatar_lists,
       budget=st.integers(min_value=0, max_value=400_000),
       cap_index=st.integers(min_value=0, max_value=len(LOD_LEVELS) - 1))
def test_level_cap_preserves_budget_invariant(avatars, budget, cap_index):
    cap = LOD_LEVELS[cap_index]
    assignment = select_lod(_named(avatars), budget, level_cap=cap.name)
    assert total_triangles(assignment) <= budget
    assert all(level.triangles <= cap.triangles
               for level in assignment.values())


def test_omission_only_when_nothing_fits():
    # 3 avatars, budget for exactly two billboards: the two best-ranked
    # get one each, the third is omitted, and the budget holds.
    avatars = [("near", 0.0, 1.0), ("mid", 5.0, 0.5), ("far", 20.0, 0.1)]
    assignment = select_lod(avatars, 400)
    assert set(assignment) == {"near", "mid"}
    assert total_triangles(assignment) == 400


def test_quality_never_negative_total():
    assert total_quality(select_lod([], 0)) == 0.0


def test_greedy_budget_boundary_exact_fit():
    # Budget exactly one billboard: one avatar gets it, others dropped.
    avatars = [(f"a{i}", float(i), 1.0) for i in range(5)]
    assignment = select_lod(avatars, LOD_LEVELS[-1].triangles)
    assert len(assignment) == 1
    assert total_triangles(assignment) == LOD_LEVELS[-1].triangles


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        select_lod([("a", 1.0, 1.0)], -5)
