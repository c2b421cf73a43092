"""The edge → headset scene downlink.

The last hop of Figure 3: the edge server "generates the scene to display
to the users through the lens of their MR headsets".  Every scene tick the
edge pushes the current remote-avatar states to each local headset over
the shared WiFi cell — which means the downlink competes for the same
airtime as the pose uplink, and a packed classroom can saturate the cell
from either direction.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.metrics.latency import LatencyTracker
from repro.net.packet import Packet
from repro.net.wifi import WifiNetwork
from repro.sensing.quantize import QuantizationConfig
from repro.simkit.engine import Simulator

_QUANT = QuantizationConfig()


class SceneDownlink:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """Distributes the MR scene to a classroom's headsets each tick."""

    def __init__(
        self,
        sim: Simulator,
        wifi: WifiNetwork,
        scene_source: Callable[[], Dict[str, object]],
        headset_ids: List[str],
        rate_hz: float = 20.0,
        on_deliver: Optional[Callable[[str, dict], None]] = None,
    ):
        if rate_hz <= 0:
            raise ValueError("rate must be positive")
        if not headset_ids:
            raise ValueError("no headsets to serve")
        self.sim = sim
        self.wifi = wifi
        self.scene_source = scene_source
        self.headset_ids = list(headset_ids)
        self.rate_hz = float(rate_hz)
        self.on_deliver = on_deliver
        self.delivery_latency = LatencyTracker("scene_downlink")
        self.frames_sent = 0
        self.frames_dropped = 0

    def _tick(self) -> None:
        scene = self.scene_source()
        if not scene:
            return
        payload_bytes = sum(
            state.wire_bytes(_QUANT) for state in scene.values()
        )
        for headset_id in self.headset_ids:
            sent_at = self.sim.now
            packet = Packet(
                src="edge", dst=headset_id,
                size_bytes=max(64, payload_bytes), kind="scene",
                payload=scene, created_at=sent_at,
            )

            def deliver(packet, headset_id=headset_id, sent_at=sent_at):
                self.delivery_latency.record(self.sim.now - sent_at)
                if self.on_deliver is not None:
                    self.on_deliver(headset_id, packet.payload)

            if self.wifi.send(packet, deliver):
                self.frames_sent += 1
            else:
                self.frames_dropped += 1

    def run(self, duration: float):
        """The downlink tick process."""

        def body():
            period = 1.0 / self.rate_hz
            end = self.sim.now + duration
            while self.sim.now < end - 1e-12:
                self._tick()
                yield self.sim.timeout(period)

        return self.sim.process(body())

    @property
    def drop_fraction(self) -> float:
        total = self.frames_sent + self.frames_dropped
        return self.frames_dropped / total if total else 0.0
