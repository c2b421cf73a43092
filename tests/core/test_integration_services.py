"""Cross-module integration: WiFi saturation behaviour under a packed room."""

from repro.net.packet import Packet
from repro.net.wifi import WifiNetwork
from repro.simkit import Simulator


def test_wifi_saturation_drops_under_packed_room():
    """Failure mode: a packed classroom's cell sheds frames."""
    sim = Simulator(seed=4)
    wifi = WifiNetwork(sim, rate_bps=20e6, contenders=120, cw_min=8,
                       max_retries=2, name="packed")
    outcomes = []
    for i in range(400):
        ok = wifi.send(
            Packet(src=f"h{i}", dst="edge", size_bytes=1200),
            lambda p: None,
        )
        outcomes.append(ok)
        sim.run()
    dropped = outcomes.count(False)
    assert dropped > 0                      # saturation is visible...
    assert wifi.stats.collisions > 100      # ...and caused by collisions
    assert wifi.stats.dropped == dropped
