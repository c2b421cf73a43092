"""Avatar level-of-detail tiers and selection policy.

The paper: sophisticated avatars "may be too complex to render with WebGL
and lightweight VR headsets", so receivers pick a fidelity tier per avatar
under a triangle budget, preferring high detail for nearby / important
participants (the instructor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class LodLevel:
    """One fidelity tier of the avatar asset."""

    name: str
    triangles: int
    has_full_skeleton: bool
    has_expression: bool
    quality: float  # perceptual quality index in [0, 1]


#: Tiers from photoreal scan down to a nameplate billboard.
LOD_LEVELS: Tuple[LodLevel, ...] = (
    LodLevel("photoreal", 150_000, True, True, 1.00),
    LodLevel("high", 40_000, True, True, 0.85),
    LodLevel("medium", 12_000, True, True, 0.65),
    LodLevel("low", 3_000, True, False, 0.40),
    LodLevel("billboard", 200, False, False, 0.15),
)


def level_by_name(name: str) -> LodLevel:
    for level in LOD_LEVELS:
        if level.name == name:
            return level
    raise KeyError(f"unknown LOD level: {name!r}")


def select_lod(
    distances_importance: Sequence[Tuple[str, float, float]],
    triangle_budget: int,
    level_cap: Optional[Union[str, LodLevel]] = None,
) -> Dict[str, LodLevel]:
    """Assign a LOD tier per avatar under a total triangle budget.

    ``distances_importance`` is ``[(avatar_id, distance_m, importance)]``
    with importance in [0, 1] (e.g. 1.0 for the instructor).  Avatars are
    ranked by ``importance / (1 + distance)`` and greedily given the best
    tier that still fits the remaining budget — a deliberately simple
    policy that tests bound against the exact knapsack in
    ``tests/oracles/lod.py``.

    ``level_cap`` (a tier name or :class:`LodLevel`) bounds the *best*
    tier any avatar may receive; the adaptation controller degrades a
    client by tightening this cap rather than shrinking the budget, so
    far avatars keep their cheap tiers while near ones step down.

    The invariant ``total_triangles(select_lod(...)) <= triangle_budget``
    always holds: an avatar whose cheapest permitted tier no longer fits
    the remaining budget is *omitted* from the assignment (rendered as
    nothing rather than blowing the frame budget — the caller can treat
    absence as "culled").
    """
    if triangle_budget < 0:
        raise ValueError("triangle budget must be >= 0")
    levels = LOD_LEVELS
    if level_cap is not None:
        cap = level_by_name(level_cap) if isinstance(level_cap, str) \
            else level_cap
        levels = tuple(
            level for level in LOD_LEVELS if level.triangles <= cap.triangles
        )
    ranked = sorted(
        distances_importance,
        key=lambda item: -(item[2] / (1.0 + item[1])),
    )
    assignment: Dict[str, LodLevel] = {}
    remaining = triangle_budget
    for avatar_id, _distance, _importance in ranked:
        chosen = None
        for level in levels:
            if level.triangles <= remaining:
                chosen = level
                break
        if chosen is None:
            # Even the cheapest permitted tier overruns what is left:
            # skip this avatar entirely.  Assigning the billboard anyway
            # (the old behaviour) made the total exceed the budget.
            continue
        assignment[avatar_id] = chosen
        remaining -= chosen.triangles
    return assignment


def total_quality(assignment: Dict[str, LodLevel]) -> float:
    """Sum of perceptual quality across all assigned avatars."""
    return sum(level.quality for level in assignment.values())


def total_triangles(assignment: Dict[str, LodLevel]) -> int:
    return sum(level.triangles for level in assignment.values())
