"""The exact LOD assignment: the oracle for the greedy ``select_lod``."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.avatar.lod import LOD_LEVELS, LodLevel


def select_lod_optimal(
    distances_importance: Sequence[Tuple[str, float, float]],
    triangle_budget: int,
    granularity: int = 1000,
) -> Dict[str, LodLevel]:
    """Exact multiple-choice knapsack: maximize weighted quality.

    Dynamic program over the budget discretized to ``granularity``
    triangles; each avatar picks exactly one tier.  The objective weights
    each avatar's quality by ``importance / (1 + distance)``, matching the
    greedy policy's ranking key so the two are comparable.  Exponentially
    cheaper than brute force but still O(avatars x tiers x budget/granularity);
    use for ablation, not per-frame planning.
    """
    if triangle_budget < 0:
        raise ValueError("triangle budget must be >= 0")
    if granularity < 1:
        raise ValueError("granularity must be >= 1")
    avatars = list(distances_importance)
    if not avatars:
        return {}
    slots = triangle_budget // granularity
    neg_inf = float("-inf")
    # dp[b] = best score using exactly b slots after the avatars so far;
    # choice rows encode (tier, previous b) for backtracking.
    dp = [0.0] + [neg_inf] * slots
    choices: List[List[int]] = []
    for avatar_id, distance, importance in avatars:
        weight = importance / (1.0 + distance)
        new_dp = [neg_inf] * (slots + 1)
        choice_row = [-1] * (slots + 1)
        for b in range(slots + 1):
            if dp[b] == neg_inf:
                continue
            for tier_index, level in enumerate(LOD_LEVELS):
                cost = -(-level.triangles // granularity)  # ceil
                nb = b + cost
                if nb > slots:
                    continue
                score = dp[b] + weight * level.quality
                if score > new_dp[nb]:
                    new_dp[nb] = score
                    choice_row[nb] = tier_index * (slots + 1) + b
        dp = new_dp
        choices.append(choice_row)
        if all(value == neg_inf for value in dp):
            # Even the cheapest tier does not fit for this avatar: no
            # feasible full assignment exists at this budget.
            raise ValueError(
                "budget too small to assign every avatar a tier; "
                "increase it or reduce the roster"
            )
    # Backtrack from the best final state.
    best_b = max(range(slots + 1), key=lambda b: dp[b])
    assignment: Dict[str, LodLevel] = {}
    b = best_b
    for index in range(len(avatars) - 1, -1, -1):
        encoded = choices[index][b]
        tier_index, prev_b = divmod(encoded, slots + 1)
        assignment[avatars[index][0]] = LOD_LEVELS[tier_index]
        b = prev_b
    return assignment
