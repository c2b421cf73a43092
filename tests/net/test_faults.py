"""Unit and replay tests for the fault-injection subsystem."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.faults import (
    FaultInjector,
    FaultLog,
    GilbertElliottLoss,
    LinkOutageSchedule,
)
from repro.net.link import Link
from repro.net.packet import Packet
from repro.simkit import Simulator

pytestmark = pytest.mark.faults


def make_packet(size=1000):
    return Packet(src="a", dst="b", size_bytes=size)


# -- outage schedules ---------------------------------------------------------


def test_outage_schedule_validation():
    with pytest.raises(ValueError):
        LinkOutageSchedule([(2.0, 1.0)])          # inverted
    with pytest.raises(ValueError):
        LinkOutageSchedule([(-1.0, 1.0)])         # in the past
    with pytest.raises(ValueError):
        LinkOutageSchedule([(0.0, 2.0), (1.0, 3.0)])  # overlapping


def test_outage_drops_in_flight_and_resets_transmitter():
    """A mid-flight outage loses queued/in-flight traffic, not just new sends."""
    sim = Simulator()
    link = Link(sim, rate_bps=8000.0, prop_delay=0.5)  # 1000B => 1 s serialize
    arrivals = []
    # Three back-to-back packets: in service until t=1,2,3 (+0.5 prop).
    for _ in range(3):
        link.send(make_packet(1000), lambda p: arrivals.append(sim.now))
    sim.call_later(0.6, lambda: setattr(link, "up", False))
    sim.run()
    # All three were accepted but none may sneak through the outage.
    assert arrivals == []
    assert link.stats.dropped_down == 3
    assert link.queued_bytes == 0
    assert link.in_flight == 0


def test_outage_recovery_starts_from_clean_transmitter():
    """No phantom backlog: a post-recovery packet sees an idle link."""
    sim = Simulator()
    link = Link(sim, rate_bps=8000.0, prop_delay=0.0)
    for _ in range(5):  # 5 s of backlog
        link.send(make_packet(1000), lambda p: None)
    sim.call_later(0.1, lambda: setattr(link, "up", False))
    sim.call_later(0.2, lambda: setattr(link, "up", True))
    arrivals = []

    def send_after_recovery():
        link.send(make_packet(1000), lambda p: arrivals.append(sim.now))

    sim.call_later(0.2, send_after_recovery)
    sim.run()
    # Serialization restarts immediately at recovery: 0.2 + 1.0, not 5 + 1.
    assert arrivals == [pytest.approx(1.2)]


def test_down_link_refuses_new_packets():
    sim = Simulator()
    link = Link(sim, rate_bps=1e6, prop_delay=0.0)
    link.up = False
    assert link.send(make_packet(), lambda p: None) is False
    assert link.stats.dropped_down == 1


def test_outage_schedule_apply_records_events():
    sim = Simulator()
    link = Link(sim, rate_bps=1e6, prop_delay=0.001, name="wan")
    log = FaultLog()
    LinkOutageSchedule([(1.0, 2.0)]).apply(sim, link, log=log)
    delivered = []
    for t in (0.5, 1.5, 2.5):
        sim.call_at(t, lambda: link.send(make_packet(100), delivered.append))
    sim.run()
    assert len(delivered) == 2  # the t=1.5 send hit the outage
    kinds = [event.kind for event in log]
    assert kinds == ["link_down", "link_up"]
    assert link.stats.dropped_down == 1


def test_random_outage_schedule_is_deterministic():
    draws = [
        LinkOutageSchedule.random(
            np.random.default_rng(7), horizon=100.0, mtbf=10.0, mean_duration=2.0
        )
        for _ in range(2)
    ]
    assert draws[0].windows == draws[1].windows
    assert draws[0].windows  # a 100 s horizon at MTBF 10 s yields outages
    other = LinkOutageSchedule.random(
        np.random.default_rng(8), horizon=100.0, mtbf=10.0, mean_duration=2.0
    )
    assert other.windows != draws[0].windows


# -- FIFO contract under jitter ----------------------------------------------


def test_jitter_cannot_reorder_arrivals():
    """Regression: jitter used to let packets overtake each other."""
    sim = Simulator(seed=21)
    link = Link(sim, rate_bps=1e9, prop_delay=0.001, jitter_std=0.005)
    order = []
    for i in range(200):
        link.send(make_packet(100), lambda p, i=i: order.append((sim.now, i)))
    sim.run()
    times = [t for t, _ in order]
    assert order == sorted(order, key=lambda pair: pair[1])
    assert all(a <= b + 1e-15 for a, b in zip(times, times[1:]))
    # With jitter_std >> serialization gaps the clamp must have engaged.
    assert link.stats.reordered > 0


# -- Gilbert-Elliott burst loss ----------------------------------------------


def test_gilbert_elliott_validation_and_stationary_rate():
    with pytest.raises(ValueError):
        GilbertElliottLoss(p_good_bad=1.5, p_bad_good=0.5)
    model = GilbertElliottLoss(p_good_bad=0.02, p_bad_good=0.18, loss_bad=0.8)
    assert model.stationary_bad == pytest.approx(0.1)
    assert model.expected_loss_rate == pytest.approx(0.08)


def test_gilbert_elliott_losses_are_bursty():
    sim = Simulator(seed=13)
    link = Link(sim, rate_bps=1e9, prop_delay=0.0, name="burst")
    model = GilbertElliottLoss(p_good_bad=0.02, p_bad_good=0.25, loss_bad=1.0)
    model.attach(link)
    for _ in range(4000):
        link.send(make_packet(100), lambda p: None)
        sim.run()
    observed = model.losses / model.packets
    assert abs(observed - model.expected_loss_rate) < 0.03
    # Mean burst length 1/p_bad_good = 4; i.i.d. loss would rarely exceed 3.
    assert model.max_burst >= 4
    assert link.stats.dropped_loss == model.losses


def test_gilbert_elliott_overrides_bernoulli_loss():
    sim = Simulator(seed=2)
    link = Link(sim, rate_bps=1e9, prop_delay=0.0, loss_rate=0.9)
    GilbertElliottLoss(p_good_bad=0.0, p_bad_good=1.0).attach(link)  # lossless
    delivered = []
    for _ in range(50):
        link.send(make_packet(100), delivered.append)
        sim.run()
    assert len(delivered) == 50


# -- seeded replay property ----------------------------------------------------


def _faulty_link_scenario(seed):
    """A link under both link fault classes; returns a replay fingerprint."""
    sim = Simulator(seed=seed)
    link = Link(sim, rate_bps=1e6, prop_delay=0.005, jitter_std=0.001,
                name="replay")
    injector = FaultInjector(sim)
    schedule_rng = sim.rng.stream("fault-schedule")
    injector.outage(link, LinkOutageSchedule.random(
        schedule_rng, horizon=20.0, mtbf=5.0, mean_duration=0.5))
    injector.burst_loss(link, GilbertElliottLoss(0.05, 0.3, loss_bad=0.9))
    arrivals = []

    payloads = iter(range(400))

    def source():
        i = next(payloads, None)
        if i is None:
            return None
        link.send(
            Packet(src="a", dst="b", size_bytes=400, payload=i),
            lambda p: arrivals.append((round(sim.now, 9), p.payload)),
        )
        return 0.05

    sim.every(float("inf"), source)
    sim.run()
    stats = link.stats
    return "\n".join([
        injector.fingerprint(),
        repr(arrivals),
        f"delivered={stats.delivered} loss={stats.dropped_loss} "
        f"down={stats.dropped_down} reordered={stats.reordered}",
    ])


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_any_seeded_fault_schedule_replays_identically(seed):
    """Fault events, drops and arrivals are a pure function of the seed."""
    assert _faulty_link_scenario(seed) == _faulty_link_scenario(seed)


def test_different_seeds_give_different_fault_histories():
    assert _faulty_link_scenario(1) != _faulty_link_scenario(2)
