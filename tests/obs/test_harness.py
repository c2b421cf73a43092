"""End-to-end: the probe harness produces complete, contiguous traces."""

import pytest

from repro.obs import MotionToPhotonHarness, MtpProbeConfig
from repro.obs.span import MTP_STAGES
from repro.simkit import Simulator

pytestmark = pytest.mark.obs

RTTS = {"near_a": 0.020, "near_b": 0.020,
        "far_a": 0.180, "far_b": 0.180}


@pytest.fixture(scope="module")
def harness():
    sim = Simulator(seed=7, obs=True)
    h = MotionToPhotonHarness(sim, RTTS)
    h.run(duration=2.0)
    return h


def test_requires_tracing():
    with pytest.raises(ValueError):
        MotionToPhotonHarness(Simulator(seed=7), RTTS)


def test_probe_rate_must_not_exceed_tick_rate():
    with pytest.raises(ValueError):
        MtpProbeConfig(sample_rate_hz=30.0, tick_rate_hz=20.0)


def test_every_started_trace_finishes(harness):
    assert harness.traces_started > 0
    assert harness.traces_finished == harness.traces_started


def test_traces_cover_all_pipeline_stages(harness):
    report = harness.report()
    assert report.n_traces == harness.traces_started
    assert report.incomplete == 0
    # shard_relay only exists in multi-shard deployments; the probe
    # harness runs a single authoritative server, so every *other*
    # taxonomy stage must appear (the federation tests cover the rest).
    assert set(MTP_STAGES) - {"shard_relay"} <= set(report.stages)


def test_stage_decomposition_accounts_for_e2e_latency(harness):
    """The C3b --trace acceptance bar: coverage >= 95%."""
    report = harness.report()
    assert report.mean_coverage() >= 0.95
    for trace in report.traces:
        assert trace.coverage == pytest.approx(1.0, abs=0.02)


def test_rtt_geography_separates_budget_violations(harness):
    report = harness.report()
    violations = report.violations()
    # The 180 ms pair cannot make the 100 ms budget; the 20 ms pair can.
    assert violations
    assert report.violation_fraction() == pytest.approx(0.5, abs=0.1)
    for trace in violations:
        assert trace.end_to_end > 0.100


def test_odd_probe_is_dropped():
    sim = Simulator(seed=7, obs=True)
    h = MotionToPhotonHarness(
        sim, {"a": 0.02, "b": 0.02, "lonely": 0.02})
    assert len(h.probes) == 2
