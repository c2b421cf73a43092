"""Validating the link's queueing physics against M/M/1 theory.

The latency arguments of Section 3.3 rest on queueing behaviour; this
test drives a link with Poisson arrivals and exponential packet sizes and
checks the measured sojourn time against the closed form
``W = 1 / (mu - lambda)`` — the discrete-event substrate must reproduce
textbook queueing or every downstream number is suspect.
"""

import numpy as np
import pytest

from repro.net.link import Link
from repro.net.packet import Packet
from repro.simkit import Simulator


@pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
def test_link_sojourn_matches_mm1(rho):
    sim = Simulator(seed=int(rho * 100))
    rate_bps = 8e6                      # 1e6 bytes/s service capacity
    mean_size = 1000.0                  # bytes -> mu = 1000 pkts/s
    mu = rate_bps / 8.0 / mean_size
    lam = rho * mu
    link = Link(sim, rate_bps=rate_bps, prop_delay=0.0, name=f"mm1-{rho}")
    rng = sim.rng.stream("arrivals")
    sojourns = []

    arrivals = iter(range(20_000))

    def source():
        if next(arrivals, None) is None:
            return None
        size = max(1, int(rng.exponential(mean_size)))
        packet = Packet(src="a", dst="b", size_bytes=size,
                        created_at=sim.now)
        link.send(
            packet,
            lambda p: sojourns.append(sim.now - p.created_at),
        )
        return float(rng.exponential(1.0 / lam))

    sim.every(float("inf"), source)
    sim.run()
    measured = float(np.mean(sojourns))
    theory = 1.0 / (mu - lam)
    # Integer-byte truncation of sizes shifts the service mean slightly;
    # 15% tolerance is tight enough to catch real queueing bugs.
    assert measured == pytest.approx(theory, rel=0.15)


def test_utilization_matches_offered_load():
    sim = Simulator(seed=7)
    rate_bps = 8e6
    link = Link(sim, rate_bps=rate_bps, prop_delay=0.0, name="util")
    rng = sim.rng.stream("arrivals2")
    rho = 0.5
    mu = rate_bps / 8.0 / 1000.0

    arrivals = iter(range(5_000))

    def source():
        if next(arrivals, None) is None:
            return None
        size = max(1, int(rng.exponential(1000.0)))
        link.send(Packet(src="a", dst="b", size_bytes=size), lambda p: None)
        return float(rng.exponential(1.0 / (rho * mu)))

    sim.every(float("inf"), source)
    sim.run()
    assert link.utilization() == pytest.approx(rho, rel=0.1)
