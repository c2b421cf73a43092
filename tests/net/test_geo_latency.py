"""Unit tests for geography and the WAN latency model."""

import numpy as np
import pytest

from repro.net.geo import WORLD_CITIES, GeoPoint, haversine_km
from repro.net.latency import FIBER_KM_PER_S, WanLatencyModel, fiber_delay


def test_haversine_known_distance():
    # Hong Kong (CWB) to Guangzhou campus is roughly 100 km.
    d = haversine_km(WORLD_CITIES["hkust_cwb"], WORLD_CITIES["hkust_gz"])
    assert 60 < d < 160


def test_haversine_zero_and_symmetry():
    a, b = WORLD_CITIES["mit"], WORLD_CITIES["london"]
    assert haversine_km(a, a) == 0.0
    assert haversine_km(a, b) == pytest.approx(haversine_km(b, a))


def test_geopoint_validation():
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, 181.0)


def test_fiber_delay_scales_with_distance():
    near = fiber_delay(WORLD_CITIES["hkust_cwb"], WORLD_CITIES["hkust_gz"])
    far = fiber_delay(WORLD_CITIES["hkust_cwb"], WORLD_CITIES["london"])
    assert near < 0.002  # ~100 km => well under 2 ms
    assert far > 0.04    # ~9600 km => > 40 ms one way
    with pytest.raises(ValueError):
        fiber_delay(WORLD_CITIES["mit"], WORLD_CITIES["london"], stretch=0.5)


def test_wan_model_cross_region_penalty():
    model = WanLatencyModel(jitter_mean=0.0)
    same = model.one_way_delay(
        WORLD_CITIES["hkust_cwb"], WORLD_CITIES["hkust_gz"],
        "east_asia", "east_asia", sample_jitter=False,
    )
    cross = model.one_way_delay(
        WORLD_CITIES["hkust_cwb"], WORLD_CITIES["hkust_gz"],
        "east_asia", "europe", sample_jitter=False,
    )
    assert cross == pytest.approx(same + model.default_cross_region_penalty)


def test_wan_model_explicit_peering_penalty():
    model = WanLatencyModel(
        peering_penalties={frozenset(("east_asia", "south_america")): 0.08},
        jitter_mean=0.0,
    )
    assert model.penalty("east_asia", "south_america") == 0.08
    assert model.penalty("south_america", "east_asia") == 0.08
    assert model.penalty("east_asia", "east_asia") == 0.0


def test_wan_rtt_hk_to_europe_is_hundreds_of_ms_shape():
    """The paper: far-away or poorly-peered users see ~100s of ms RTT."""
    model = WanLatencyModel(
        rng=np.random.default_rng(0),
        default_cross_region_penalty=0.02,
    )
    rtt = model.rtt(
        WORLD_CITIES["hkust_cwb"], WORLD_CITIES["cambridge_uk"],
        "east_asia", "europe",
    )
    assert 0.120 < rtt < 0.400


def test_wan_jitter_requires_rng():
    model = WanLatencyModel(jitter_mean=0.01)  # no rng -> deterministic
    a = model.one_way_delay(WORLD_CITIES["mit"], WORLD_CITIES["london"])
    b = model.one_way_delay(WORLD_CITIES["mit"], WORLD_CITIES["london"])
    assert a == b
