"""Unit tests for foveated rendering."""

import pytest

from repro.render.display import DisplayModel
from repro.render.foveated import (
    FoveationConfig,
    effective_triangle_budget,
    foveated_cost_factor,
)


def test_cost_factor_below_one_and_grows_with_fovea():
    display = DisplayModel(fov_horizontal_deg=100.0, fov_vertical_deg=95.0)
    small = foveated_cost_factor(display, FoveationConfig(fovea_radius_deg=10.0))
    large = foveated_cost_factor(display, FoveationConfig(fovea_radius_deg=40.0))
    assert 0.0 < small < large <= 1.0


def test_wider_fov_saves_more():
    """The wide displays the classroom wants benefit most."""
    narrow = DisplayModel(name="n", fov_horizontal_deg=52.0, fov_vertical_deg=40.0)
    wide = DisplayModel(name="w", fov_horizontal_deg=110.0, fov_vertical_deg=100.0)
    config = FoveationConfig(fovea_radius_deg=15.0)
    assert foveated_cost_factor(wide, config) < foveated_cost_factor(narrow, config)


def test_effective_budget_scales_inverse_to_cost():
    display = DisplayModel(fov_horizontal_deg=100.0, fov_vertical_deg=95.0)
    config = FoveationConfig()
    base = 1_000_000
    effective = effective_triangle_budget(base, display, config)
    assert effective > base
    assert effective == int(base / foveated_cost_factor(display, config))
    with pytest.raises(ValueError):
        effective_triangle_budget(-1, display)


def test_config_validation():
    with pytest.raises(ValueError):
        FoveationConfig(fovea_radius_deg=0.5)
    with pytest.raises(ValueError):
        FoveationConfig(periphery_cost_scale=0.0)
