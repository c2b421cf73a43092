"""Controller hysteresis, monotone rung walking, and decision replay."""

import pytest

from repro.adapt import (
    AdaptConfig,
    AdaptationController,
    ClientKnobs,
    DEFAULT_LADDER,
)
from repro.obs.scoreboard import QoeScoreboard
from repro.obs.slo import BREACH, SloEngine, SloSpec

pytestmark = pytest.mark.adapt

CFG = AdaptConfig(degrade_polls=2, restore_polls=3, hold_time_s=2.0)


def make_loop(clients=("u1",), config=CFG, **controller_kwargs):
    # Window shorter than the 0.5 s poll cadence: each poll's percentile
    # reflects only that interval's samples, so the tests exercise the
    # controller's own streak/hold hysteresis rather than the
    # scoreboard's sample-window persistence.
    scoreboard = QoeScoreboard(window_s=0.4)
    streams = {}
    controller = AdaptationController(
        scoreboard, config=config, **controller_kwargs)
    for client in clients:
        samples = []
        streams[client] = samples
        scoreboard.add_client(
            client, (lambda s=samples: s), susceptibility=1.0)
        controller.add_client(client)
    return scoreboard, controller, streams


def drive(scoreboard, controller, streams, latency_s, polls, t0, dt=0.5):
    t = t0
    for _ in range(polls):
        for samples in streams.values():
            samples.append(latency_s)
        scoreboard.poll(t, dt_s=dt)
        controller.poll(t)
        t += dt
    return t


def test_degrades_one_rung_at_a_time_never_skips():
    scoreboard, controller, streams = make_loop()
    t = drive(scoreboard, controller, streams, 0.200, 12, 0.0)
    assert controller.rung("u1") == len(DEFAULT_LADDER) - 1
    # Every decision moves exactly one rung; names are ladder-adjacent.
    names = [rung.name for rung in DEFAULT_LADDER]
    for decision in controller.decisions:
        i, j = names.index(decision.from_rung), names.index(decision.to_rung)
        assert j == i + 1 and decision.action == "degrade"


def test_degrade_requires_streak():
    scoreboard, controller, streams = make_loop()
    # One pressured poll then clean: below degrade_polls=2, no step.
    drive(scoreboard, controller, streams, 0.200, 1, 0.0)
    assert controller.rung("u1") == 0
    # The pressured streak resets on a clean read.
    drive(scoreboard, controller, streams, 0.010, 11, 0.5)
    assert controller.rung("u1") == 0
    assert controller.decisions == []


def test_restore_waits_out_hold_time_no_oscillation():
    scoreboard, controller, streams = make_loop()
    t = drive(scoreboard, controller, streams, 0.200, 2, 0.0)  # -> rung 1
    assert controller.rung("u1") == 1
    step_t = controller.decisions[-1].t
    # Latency immediately clean on the next interval.
    t = drive(scoreboard, controller, streams, 0.010, 30, t)
    restores = [d for d in controller.decisions if d.action == "restore"]
    assert controller.rung("u1") == 0
    assert len(restores) == 1
    # The restore respected both the hold time and the clean streak.
    assert restores[0].t - step_t >= CFG.hold_time_s


def test_oscillating_signal_within_hold_time_holds_rung():
    scoreboard, controller, streams = make_loop(
        config=AdaptConfig(degrade_polls=1, restore_polls=1,
                           hold_time_s=60.0))
    t = drive(scoreboard, controller, streams, 0.200, 1, 0.0)
    assert controller.rung("u1") == 1
    # Flapping between clean and the dead band for a while: the huge
    # hold time pins the rung; no restore may fire.
    for i in range(20):
        latency = 0.010 if i % 2 == 0 else 0.075
        t = drive(scoreboard, controller, streams, latency, 1, t)
    assert controller.rung("u1") >= 1
    assert not [d for d in controller.decisions if d.action == "restore"]


def test_dead_band_resets_both_streaks():
    scoreboard, controller, streams = make_loop()
    # Alternate pressure and dead-band readings: the dead band resets
    # the pressure streak every other poll, so it never reaches
    # degrade_polls=2 and no step ever fires.
    t = 0.0
    for i in range(10):
        latency = 0.200 if i % 2 == 0 else 0.075
        t = drive(scoreboard, controller, streams, latency, 1, t)
    assert controller.rung("u1") == 0
    assert controller.decisions == []


def test_slo_breach_is_global_pressure():
    scoreboard = QoeScoreboard()
    samples = []
    scoreboard.add_client("u1", lambda: samples, susceptibility=1.0)
    engine = SloEngine()
    bad = []
    engine.watch(
        SloSpec("mtp", objective=0.1, fast_window_s=1.0, slow_window_s=2.0),
        lambda: bad)
    controller = AdaptationController(
        scoreboard, config=CFG, slo_engine=engine, slo_names=("mtp",))
    controller.add_client("u1")
    t = 0.0
    # Latency itself is clean, but the SLO stream burns.
    for _ in range(30):
        samples.append(0.010)
        bad.append(0.500)
        scoreboard.poll(t)
        engine.evaluate(t)
        controller.poll(t)
        t += 0.25
    assert engine.state("mtp") == BREACH
    assert controller.rung("u1") >= 1
    assert any("slo_breach" in d.reason for d in controller.decisions)


def test_loss_probe_is_pressure():
    scoreboard, controller, streams = make_loop(clients=())
    samples = []
    scoreboard.add_client("u1", lambda: samples, susceptibility=1.0)
    loss = {"value": 0.0}
    controller.add_client("u1", loss_probe=lambda: loss["value"])
    loss["value"] = 0.2
    t = 0.0
    for _ in range(4):
        samples.append(0.010)
        scoreboard.poll(t)
        controller.poll(t)
        t += 0.5
    assert controller.rung("u1") >= 1
    assert any("loss=" in d.reason for d in controller.decisions)


def test_decision_log_replays_byte_identical():
    logs = []
    for _ in range(2):
        scoreboard, controller, streams = make_loop(clients=("u1", "u2"))
        t = drive(scoreboard, controller, streams, 0.200, 6, 0.0)
        drive(scoreboard, controller, streams, 0.010, 20, t)
        logs.append(controller.fingerprint())
    assert logs[0] == logs[1]
    assert logs[0]  # non-empty witness


def test_clients_visited_in_sorted_order():
    scoreboard, controller, streams = make_loop(clients=("zz", "aa"))
    drive(scoreboard, controller, streams, 0.200, 2, 0.0)
    same_poll = [d.client for d in controller.decisions if d.t == 0.5]
    assert same_poll == sorted(same_poll)


def test_knobs_receive_rung_values():
    scoreboard = QoeScoreboard()
    samples = []
    scoreboard.add_client("u1", lambda: samples, susceptibility=1.0)
    calls = {"lod": [], "decim": []}
    knobs = ClientKnobs(
        set_lod_cap=calls["lod"].append,
        set_decimation=calls["decim"].append,
    )
    controller = AdaptationController(scoreboard, config=CFG)
    controller.add_client("u1", knobs=knobs)
    # Registration actuates rung 0 immediately.
    assert calls["lod"][-1] == "photoreal"
    assert calls["decim"][-1] == 1
    t = 0.0
    for _ in range(4):
        samples.append(0.200)
        scoreboard.poll(t)
        controller.poll(t)
        t += 0.5
    rung = DEFAULT_LADDER[controller.rung("u1")]
    assert rung.name != "photoreal"
    assert calls["lod"][-1] == rung.lod_cap
    assert calls["decim"][-1] == rung.snapshot_decimation


def test_mitigation_costs_tracked_against_pre_mitigation_exposure():
    from repro.sickness.conflict import ExposureConfig
    scoreboard = QoeScoreboard(
        exposure=ExposureConfig(navigation_speed_m_s=2.0, fov_deg=100.0))
    samples = []
    scoreboard.add_client("u1", lambda: samples, susceptibility=1.0)
    controller = AdaptationController(
        scoreboard, config=AdaptConfig(degrade_polls=1))
    controller.add_client("u1")
    t = 0.0
    for _ in range(len(DEFAULT_LADDER) + 2):
        samples.append(0.300)
        scoreboard.poll(t)
        controller.poll(t)
        t += 0.5
    assert controller.rung_name("u1") == "lifeline"
    costs = controller.mitigation_costs("u1")
    # SpeedProtector 0.75 on a 2.0 m/s exposure, FovVignette 60 on 100.
    assert costs[0] == pytest.approx(2.0 / 0.75)
    assert costs[1] == pytest.approx(0.4)
    assert controller.exposure_for("u1").fov_deg == pytest.approx(60.0)
    assert "mitigation_costs=" in controller.decisions[-1].detail


def test_flight_recorder_accepts_decisions():
    from repro.obs.flight import FlightRecorder
    scoreboard, controller, streams = make_loop()
    drive(scoreboard, controller, streams, 0.200, 4, 0.0)
    recorder = FlightRecorder(window_s=100.0, decisions=controller.decisions)
    body = recorder.snapshot(now=10.0)
    assert body["decisions"]
    entry = body["decisions"][0]
    assert entry["site"] == "u1"
    assert entry["action"] == "degrade"
    assert "lod=" in entry["detail"]


def test_registry_export():
    from repro.metrics.collector import MetricsRegistry
    scoreboard, controller, streams = make_loop(clients=("u1", "u2"))
    drive(scoreboard, controller, streams, 0.200, 4, 0.0)
    registry = MetricsRegistry()
    controller.to_registry(registry)
    assert registry.counter("adapt_decisions_total") == len(
        controller.decisions) > 0


def test_validation_and_registration_errors():
    scoreboard = QoeScoreboard()
    controller = AdaptationController(scoreboard)
    with pytest.raises(KeyError):
        controller.add_client("ghost")
    samples = []
    scoreboard.add_client("u1", lambda: samples, susceptibility=1.0)
    controller.add_client("u1")
    with pytest.raises(ValueError):
        controller.add_client("u1")
    assert "u1" in controller
    with pytest.raises(ValueError):
        AdaptConfig(restore_latency_s=0.2, degrade_latency_s=0.1)
    with pytest.raises(ValueError):
        AdaptConfig(degrade_polls=0)
    with pytest.raises(ValueError):
        AdaptConfig(hold_time_s=-1.0)
    with pytest.raises(ValueError):
        AdaptConfig(restore_loss=0.5, degrade_loss=0.1)
    scoreboard.add_client("u2", lambda: [], susceptibility=1.0)
    with pytest.raises(ValueError):
        controller.add_client("u2", start_rung=99)
