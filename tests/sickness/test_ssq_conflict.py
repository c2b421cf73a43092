"""Unit tests for SSQ scoring and sensory-conflict dynamics."""

import pytest

from repro.sickness.conflict import ExposureConfig, SensoryConflictModel
from repro.sickness.mitigation import FovVignette, SpeedProtector
from repro.sickness.ssq import SSQ_SYMPTOMS, score_ssq


def test_ssq_zero_ratings_zero_scores():
    response = score_ssq({})
    assert response.nausea == 0.0
    assert response.oculomotor == 0.0
    assert response.disorientation == 0.0
    assert response.total == 0.0


def test_ssq_known_vector():
    # nausea=2 loads N and D; fatigue=1 loads O only.
    response = score_ssq({"nausea": 2.0, "fatigue": 1.0})
    assert response.nausea == pytest.approx(2.0 * 9.54)
    assert response.oculomotor == pytest.approx(1.0 * 7.58)
    assert response.disorientation == pytest.approx(2.0 * 13.92)
    assert response.total == pytest.approx((2.0 + 1.0 + 2.0) * 3.74)


def test_ssq_sixteen_symptoms():
    assert len(SSQ_SYMPTOMS) == 16
    # Every symptom loads at least one subscale.
    assert all(any(loads) for loads in SSQ_SYMPTOMS.values())


def test_ssq_validation():
    with pytest.raises(KeyError):
        score_ssq({"hiccups": 1.0})
    with pytest.raises(ValueError):
        score_ssq({"nausea": 4.0})


def test_conflict_grows_with_latency():
    """C2 shape: more motion-to-photon latency, more sickness."""
    totals = {}
    for latency in (20.0, 80.0, 200.0):
        model = SensoryConflictModel()
        model.expose(ExposureConfig(motion_to_photon_ms=latency), 1200.0)
        totals[latency] = model.ssq().total
    assert totals[20.0] < totals[80.0] < totals[200.0]


def test_conflict_grows_with_speed_and_fov():
    fast = SensoryConflictModel()
    fast.expose(ExposureConfig(navigation_speed_m_s=4.0), 1200.0)
    slow = SensoryConflictModel()
    slow.expose(ExposureConfig(navigation_speed_m_s=0.5), 1200.0)
    assert fast.state > slow.state

    wide = SensoryConflictModel()
    wide.expose(ExposureConfig(fov_deg=140.0, navigation_speed_m_s=2.0), 1200.0)
    narrow = SensoryConflictModel()
    narrow.expose(ExposureConfig(fov_deg=60.0, navigation_speed_m_s=2.0), 1200.0)
    assert wide.state > narrow.state


def test_teleportation_removes_vection():
    smooth = ExposureConfig(navigation_speed_m_s=3.0, uses_smooth_locomotion=True)
    teleport = ExposureConfig(navigation_speed_m_s=3.0, uses_smooth_locomotion=False)
    assert teleport.conflict_rate() < smooth.conflict_rate()


def test_low_frame_rate_adds_judder():
    juddery = ExposureConfig(frame_rate_hz=30.0)
    smooth = ExposureConfig(frame_rate_hz=90.0)
    assert juddery.conflict_rate() > smooth.conflict_rate()


def test_susceptibility_scales_sickness():
    exposure = ExposureConfig(navigation_speed_m_s=2.0)
    fragile = SensoryConflictModel(susceptibility=1.8)
    tough = SensoryConflictModel(susceptibility=0.6)
    fragile.expose(exposure, 900.0)
    tough.expose(exposure, 900.0)
    assert fragile.ssq().total > tough.ssq().total


def test_disorientation_dominates_subscales():
    """HMD exposure: D > N > O is the reported SSQ profile."""
    model = SensoryConflictModel()
    model.expose(ExposureConfig(navigation_speed_m_s=2.5), 1800.0)
    ssq = model.ssq()
    assert ssq.disorientation > ssq.nausea > ssq.oculomotor


def test_conflict_validation():
    with pytest.raises(ValueError):
        ExposureConfig(motion_to_photon_ms=-1.0)
    with pytest.raises(ValueError):
        ExposureConfig(fov_deg=5.0)
    with pytest.raises(ValueError):
        ExposureConfig(frame_rate_hz=0.0)
    with pytest.raises(ValueError):
        SensoryConflictModel(susceptibility=0.0)
    with pytest.raises(ValueError):
        SensoryConflictModel().expose(ExposureConfig(), -1.0)


def test_speed_protector_caps_speed_and_costs_time():
    protector = SpeedProtector(max_speed_m_s=1.0)
    config = ExposureConfig(navigation_speed_m_s=3.0)
    protected = protector.apply(config)
    assert protected.navigation_speed_m_s == 1.0
    assert protector.travel_time_factor(config) == pytest.approx(3.0)
    assert protector.travel_time_factor(protected) == 1.0


def test_speed_protector_reduces_sickness():
    """Mitigation ablation shape (the paper's speed protector, ref [43])."""
    config = ExposureConfig(navigation_speed_m_s=3.0)
    raw = SensoryConflictModel()
    raw.expose(config, 1200.0)
    protected = SensoryConflictModel()
    protected.expose(SpeedProtector(1.0).apply(config), 1200.0)
    assert protected.ssq().total < raw.ssq().total


def test_vignette_reduces_sickness_at_visibility_cost():
    config = ExposureConfig(fov_deg=110.0, navigation_speed_m_s=2.5)
    vignette = FovVignette(restricted_fov_deg=60.0)
    raw = SensoryConflictModel()
    raw.expose(config, 1200.0)
    restricted = SensoryConflictModel()
    restricted.expose(vignette.apply(config), 1200.0)
    assert restricted.state < raw.state
    assert vignette.visibility_cost(config) == pytest.approx(1 - 60 / 110)
    assert vignette.visibility_cost(vignette.apply(config)) == 0.0


def test_mitigation_validation():
    with pytest.raises(ValueError):
        SpeedProtector(max_speed_m_s=0.0)
    with pytest.raises(ValueError):
        FovVignette(restricted_fov_deg=5.0)
