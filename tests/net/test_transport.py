"""Unit tests for the reliable transport, :class:`ReliableChannel`."""

import pytest

from repro.net.geo import WORLD_CITIES
from repro.net.topology import Site, Topology
from repro.net.transport import ReliableChannel
from repro.simkit import Simulator


def lossy_pair(sim, loss_rate=0.0):
    topo = Topology(sim)
    topo.add_site(Site("a", WORLD_CITIES["hkust_cwb"]))
    topo.add_site(Site("b", WORLD_CITIES["hkust_gz"]))
    topo.connect("a", "b", rate_bps=100e6, loss_rate=loss_rate)
    return topo.channel("a", "b"), topo.channel("b", "a")


def test_reliable_channel_in_order_no_loss():
    sim = Simulator()
    forward, reverse = lossy_pair(sim)
    got = []
    rc = ReliableChannel(sim, forward, reverse, "a", "b", on_deliver=got.append)
    for i in range(20):
        rc.send(i, size_bytes=500)
    sim.run()
    assert got == list(range(20))
    assert rc.delivered == 20
    assert rc.failed == 0


def test_reliable_channel_recovers_from_heavy_loss():
    sim = Simulator(seed=11)
    forward, reverse = lossy_pair(sim, loss_rate=0.3)
    got = []
    rc = ReliableChannel(sim, forward, reverse, "a", "b", on_deliver=got.append)
    for i in range(50):
        rc.send(i, size_bytes=400)
    sim.run()
    assert got == list(range(50))
    assert rc.retransmissions > 0


def test_reliable_channel_rto_adapts():
    sim = Simulator()
    forward, reverse = lossy_pair(sim)
    rc = ReliableChannel(sim, forward, reverse, "a", "b",
                         on_deliver=lambda _: None, initial_rto=1.0)
    rc.send("x", size_bytes=100)
    sim.run()
    # Path RTT is ~1.5 ms; RTO must have shrunk drastically from 1 s.
    assert rc.rto < 0.1


def test_reliable_channel_gives_up_after_max_retries():
    """A dead forward path exhausts retries and counts the failure."""
    sim = Simulator(seed=99)

    class DeadChannel:
        def send(self, packet, deliver):
            pass  # black hole

    _, reverse = lossy_pair(sim)
    rc = ReliableChannel(sim, DeadChannel(), reverse, "a", "b",
                         on_deliver=lambda p: None,
                         initial_rto=0.01, max_retries=3)
    rc.send("doomed", size_bytes=100)
    sim.run()
    assert rc.failed == 1
    assert rc.delivered == 0
    assert rc.retransmissions == 3


# -- failure hardening (fault-injection PR) -----------------------------------


class _DropSeq:
    """A channel wrapper that black-holes one data sequence forever."""

    def __init__(self, inner, doomed_seq):
        self.inner = inner
        self.doomed_seq = doomed_seq
        self.suppressed = 0

    def send(self, packet, deliver):
        if packet.kind != "rel_skip" and packet.meta.get("seq") == self.doomed_seq:
            self.suppressed += 1
            return
        self.inner.send(packet, deliver)


@pytest.mark.faults
def test_reliable_channel_no_head_of_line_deadlock_on_permanent_loss():
    """Regression: one permanently-lost packet used to stall delivery forever."""
    sim = Simulator()
    forward, reverse = lossy_pair(sim)
    got, failures = [], []
    rc = ReliableChannel(
        sim, _DropSeq(forward, doomed_seq=5), reverse, "a", "b",
        on_deliver=got.append, initial_rto=0.05, max_retries=3,
        on_fail=lambda payload, seq: failures.append((payload, seq)),
    )
    for i in range(20):
        rc.send(i, size_bytes=300)
    sim.run()
    # Everything except the dead packet arrives, in order, past the gap.
    assert got == [i for i in range(20) if i != 5]
    assert rc.delivered == 19
    assert rc.failed == 1
    assert rc.skipped == 1
    assert failures == [(5, 5)]
    assert rc.dead_pending == 0  # receiver confirmed the skip via acks


@pytest.mark.faults
def test_reliable_channel_skips_trailing_dead_packet():
    """The skip control packet alone unblocks a gap with no later traffic."""
    sim = Simulator()
    forward, reverse = lossy_pair(sim)
    got = []
    rc = ReliableChannel(
        sim, _DropSeq(forward, doomed_seq=2), reverse, "a", "b",
        on_deliver=got.append, initial_rto=0.05, max_retries=3,
    )
    # Send the doomed packet *last*: nothing later piggybacks the dead set,
    # so only the dedicated rel_skip control packet can advance the receiver.
    for i in range(3):
        rc.send(i, size_bytes=300)
    sim.run()
    assert got == [0, 1]
    assert rc.skipped == 1
    assert rc.dead_pending == 0


@pytest.mark.faults
def test_reliable_transfer_completes_across_link_outage():
    """Acceptance: a mid-transfer outage delays, but never deadlocks, ARQ."""
    from repro.net.faults import LinkOutageSchedule

    sim = Simulator(seed=17)
    topo = Topology(sim)
    topo.add_site(Site("a", WORLD_CITIES["hkust_cwb"]))
    topo.add_site(Site("b", WORLD_CITIES["hkust_gz"]))
    topo.connect("a", "b", rate_bps=10e6)
    for link in (topo.link("a", "b"), topo.link("b", "a")):
        LinkOutageSchedule([(0.5, 1.5)]).apply(sim, link)
    got = []
    rc = ReliableChannel(sim, topo.channel("a", "b"), topo.channel("b", "a"),
                         "a", "b", on_deliver=got.append)

    payloads = iter(range(40))

    def source():
        i = next(payloads, None)
        if i is None:
            return None
        rc.send(i, size_bytes=1200)
        return 0.05  # the outage bisects the transfer

    sim.every(float("inf"), source)
    sim.run()
    assert got == list(range(40))
    assert rc.failed == 0
    assert rc.retransmissions > 0  # the outage really did cost traffic
    assert topo.link("a", "b").stats.dropped_down > 0
