"""Unit tests for the WiFi cell."""

import pytest

from repro.net.packet import Packet
from repro.net.wifi import WifiNetwork
from repro.simkit import Simulator


def test_wifi_collision_probability_grows_with_contenders():
    sim = Simulator()
    single = WifiNetwork(sim, contenders=1)
    crowded = WifiNetwork(sim, contenders=30, name="crowded")
    assert single.collision_probability() == 0.0
    assert crowded.collision_probability() > 0.5


def test_wifi_delivers_on_idle_medium():
    sim = Simulator(seed=1)
    wifi = WifiNetwork(sim, rate_bps=300e6, contenders=1)
    arrivals = []
    ok = wifi.send(Packet(src="hmd", dst="edge", size_bytes=1500),
                   lambda p: arrivals.append(sim.now))
    sim.run()
    assert ok
    assert len(arrivals) == 1
    # A 1500B frame at 300 Mbps plus overheads lands well under 1 ms.
    assert arrivals[0] < 1e-3


def test_wifi_contention_slows_frames():
    latencies = {}
    for n in (1, 40):
        sim = Simulator(seed=2)
        wifi = WifiNetwork(sim, rate_bps=50e6, contenders=n, name=f"n{n}")
        done = []
        for _ in range(200):
            wifi.send(Packet(src="hmd", dst="edge", size_bytes=1200),
                      lambda p: done.append(sim.now))
            sim.run()
        latencies[n] = sim.now / max(1, len(done))
    assert latencies[40] > latencies[1]


def test_wifi_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        WifiNetwork(sim, rate_bps=0)
    with pytest.raises(ValueError):
        WifiNetwork(sim, contenders=0)
