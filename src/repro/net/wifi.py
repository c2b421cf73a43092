"""An 802.11-style shared medium with CSMA/CA contention.

Headsets in a physical classroom share the campus WiFi to reach the edge
server (Figure 3: "transmitted through WiFi (headset) or wired network
(sensors)").  The model captures the first-order behaviour that matters to
the latency budget:

* all stations share one medium — transmissions serialize;
* per-frame overhead (DIFS + preamble) and a random backoff precede each
  transmission;
* collision probability grows with the number of contending stations,
  and collided frames retry with doubled backoff;
* MAC efficiency therefore degrades as the classroom fills up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.net.packet import Packet
from repro.simkit.engine import Simulator

#: Slot time and DIFS roughly matching 802.11n timing (seconds).
SLOT_TIME = 9e-6
DIFS = 34e-6
#: Fixed PHY/MAC overhead per frame attempt (preamble, headers, SIFS+ACK).
FRAME_OVERHEAD = 100e-6


@dataclass
class WifiStats:
    offered: int = 0
    delivered: int = 0
    collisions: int = 0
    dropped: int = 0
    airtime: float = 0.0


class WifiNetwork:
    """A single shared WiFi cell.

    Parameters
    ----------
    rate_bps:
        PHY data rate shared by all stations.
    contenders:
        Number of stations actively contending (drives collision odds).
    cw_min:
        Minimum contention window in slots.
    max_retries:
        Attempts before a frame is dropped.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float = 300e6,
        contenders: int = 1,
        cw_min: int = 16,
        max_retries: int = 7,
        name: str = "wifi",
    ):
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        if contenders < 1:
            raise ValueError("at least one contender required")
        self.sim = sim
        self.rate_bps = float(rate_bps)
        self.contenders = int(contenders)
        self.cw_min = int(cw_min)
        self.max_retries = int(max_retries)
        self.stats = WifiStats()
        self._rng = sim.rng.stream(f"wifi:{name}")
        self._busy_until = 0.0

    def collision_probability(self) -> float:
        """Per-attempt collision odds: 1 - (1 - 1/cw)^(n-1).

        The standard slotted-contention approximation: a frame collides if
        any of the other n-1 stations picked the same backoff slot.
        """
        per_station = 1.0 / self.cw_min
        return 1.0 - (1.0 - per_station) ** (self.contenders - 1)

    def send(self, packet: Packet, deliver: Callable[[Packet], None]) -> bool:
        """Transmit ``packet`` to the AP/edge; returns False if dropped."""
        self.stats.offered += 1
        now = self.sim.now
        elapsed = max(0.0, self._busy_until - now)
        p_collision = self.collision_probability()
        cw = self.cw_min
        attempts = 0
        spent_airtime = 0.0
        while True:
            attempts += 1
            backoff = float(self._rng.integers(0, cw)) * SLOT_TIME
            airtime = DIFS + backoff + FRAME_OVERHEAD + packet.size_bytes * 8.0 / self.rate_bps
            elapsed += airtime
            spent_airtime += airtime
            if self._rng.random() >= p_collision:
                break  # success
            self.stats.collisions += 1
            if attempts > self.max_retries:
                self.stats.dropped += 1
                self._busy_until = now + elapsed
                self.stats.airtime += spent_airtime
                return False
            cw = min(cw * 2, 1024)
        self._busy_until = now + elapsed
        self.stats.airtime += spent_airtime
        self.stats.delivered += 1
        self.sim.call_later(elapsed, lambda: deliver(packet))
        return True
