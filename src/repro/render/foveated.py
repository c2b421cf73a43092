"""Foveated rendering: an extension the blueprint's hardware will need.

Eye-tracked headsets can shade the fovea at full resolution and the
periphery coarsely; since the fovea subtends only a few degrees, the
savings are large and grow with display FOV — which is exactly what makes
the wide-FOV displays the classroom wants affordable on standalone HMDs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.render.display import DisplayModel


@dataclass(frozen=True)
class FoveationConfig:
    """Two-zone foveation."""

    fovea_radius_deg: float = 15.0
    periphery_cost_scale: float = 0.25   # relative shading cost out there

    def __post_init__(self):
        if not 1.0 <= self.fovea_radius_deg <= 90.0:
            raise ValueError("fovea radius out of range")
        if not 0.0 < self.periphery_cost_scale <= 1.0:
            raise ValueError("periphery scale must be in (0,1]")


def foveated_cost_factor(display: DisplayModel,
                         config: FoveationConfig = FoveationConfig()) -> float:
    """Fractional render cost vs full-resolution shading, in (0, 1].

    Approximates zones by solid angle on the display rectangle: the fovea
    circle at full cost, the rest at ``periphery_cost_scale``.
    """
    h = math.radians(display.fov_horizontal_deg)
    v = math.radians(display.fov_vertical_deg)
    display_area = h * v
    fovea_radius = math.radians(config.fovea_radius_deg)
    fovea_area = min(display_area, math.pi * fovea_radius ** 2)
    periphery_area = display_area - fovea_area
    cost = fovea_area + periphery_area * config.periphery_cost_scale
    return cost / display_area


def effective_triangle_budget(base_budget: int, display: DisplayModel,
                              config: FoveationConfig = FoveationConfig()) -> int:
    """Triangles affordable with foveation, given the unfoveated budget."""
    if base_budget < 0:
        raise ValueError("budget must be >= 0")
    factor = foveated_cost_factor(display, config)
    return int(base_budget / factor)
