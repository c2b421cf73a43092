"""Cross-module integration: services running over the real deployment.

These tests compose subsystems the way a production classroom would: a
shared CRDT whiteboard replicated between both campuses and the cloud,
and WiFi saturation behaviour under a packed room.
"""

from repro.content.collab import WhiteboardReplica, converged
from repro.core.metaverse import MetaverseClassroom
from repro.core.participant import Participant
from repro.net.packet import Packet
from repro.net.wifi import WifiNetwork
from repro.simkit import Simulator


def build_deployment(sim, students=2):
    deployment = MetaverseClassroom(sim)
    deployment.add_campus("cwb", city="hkust_cwb")
    deployment.add_campus("gz", city="hkust_gz")
    for campus in ("cwb", "gz"):
        for i in range(students):
            deployment.add_participant(Participant(f"{campus}-{i}", campus=campus))
    deployment.wire()
    return deployment


def test_whiteboard_replicates_across_three_sites():
    sim = Simulator(seed=3)
    deployment = build_deployment(sim)
    boards = {
        "cwb": WhiteboardReplica("cwb"),
        "gz": WhiteboardReplica("gz"),
        "cloud": WhiteboardReplica("cloud"),
    }
    routes = {
        ("cwb", "gz"): deployment.topology.channel("cwb", "gz"),
        ("cwb", "cloud"): deployment.topology.channel("cwb", "cloud"),
        ("gz", "cwb"): deployment.topology.channel("gz", "cwb"),
        ("gz", "cloud"): deployment.topology.channel("gz", "cloud"),
        ("cloud", "cwb"): deployment.topology.channel("cloud", "cwb"),
        ("cloud", "gz"): deployment.topology.channel("cloud", "gz"),
    }

    def broadcast(origin, op):
        for (src, dst), channel in routes.items():
            if src != origin:
                continue
            packet = Packet(src=src, dst=dst, size_bytes=200, kind="wb",
                            payload=op)
            channel.send(
                packet, lambda p, dst=dst: boards[dst].apply(p.payload)
            )

    def cwb_writer():
        for i in range(10):
            op = boards["cwb"].draw([(i, 0), (i, 1)])
            broadcast("cwb", op)
            yield sim.timeout(0.5)

    def gz_writer():
        for i in range(10):
            op = boards["gz"].draw([(0, i)], color="blue")
            broadcast("gz", op)
            if i == 5:
                erase = boards["gz"].erase(list(boards["gz"].stroke_tags())[:2])
                broadcast("gz", erase)
            yield sim.timeout(0.7)

    sim.process(cwb_writer())
    sim.process(gz_writer())
    sim.run(until=30.0)
    assert converged(list(boards.values()))
    assert len(boards["cloud"].strokes()) == 18  # 20 drawn - 2 erased


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
