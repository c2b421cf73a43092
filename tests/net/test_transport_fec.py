"""Unit tests for transports and block FEC."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.fec import BlockCode, FecDecoder, FecEncoder
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


def test_block_code_validation_and_overhead():
    code = BlockCode(k=10, r=3)
    assert code.n == 13
    assert code.overhead == pytest.approx(0.3)
    with pytest.raises(ValueError):
        BlockCode(k=0, r=1)
    with pytest.raises(ValueError):
        BlockCode(k=5, r=-1)


def test_block_code_residual_loss_decreases_with_repair():
    p = 0.05
    bare = BlockCode(k=10, r=0).residual_loss(p)
    protected = BlockCode(k=10, r=4).residual_loss(p)
    assert bare == pytest.approx(p)
    assert protected < p / 50  # orders of magnitude better


def test_fec_round_trip_recovers_erasures():
    code = BlockCode(k=4, r=2)
    delivered = []
    decoder = FecDecoder(code, on_deliver=delivered.append)

    wire = []

    def emit(payload, is_repair, generation, index):
        if not is_repair:
            decoder.register_source(generation, index, payload)
        wire.append((payload, is_repair, generation, index))

    encoder = FecEncoder(code, on_emit=emit)
    for i in range(4):
        encoder.push(f"src{i}")
    assert encoder.source_sent == 4
    assert encoder.repair_sent == 2

    # Drop two source packets; deliver the rest including both repairs.
    for payload, is_repair, gen, idx in wire:
        if idx in (1, 3) and not is_repair:
            continue
        decoder.receive(gen, idx, payload, is_repair)
    assert sorted(delivered) == [f"src{i}" for i in range(4)]
    assert decoder.delivered_recovered == 2
    assert decoder.generation_complete(0)


def test_fec_insufficient_packets_cannot_recover():
    code = BlockCode(k=4, r=1)
    delivered = []
    decoder = FecDecoder(code, on_deliver=delivered.append)
    decoder.register_source(0, 0, "a")
    decoder.receive(0, 0, "a", False)
    decoder.receive(0, 4, ("repair", 0, 0), True)
    assert delivered == ["a"]
    assert not decoder.generation_complete(0)


def test_fec_duplicate_packets_ignored():
    code = BlockCode(k=2, r=1)
    delivered = []
    decoder = FecDecoder(code, on_deliver=delivered.append)
    decoder.receive(0, 0, "a", False)
    decoder.receive(0, 0, "a", False)
    assert delivered == ["a"]


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=6),
    st.floats(min_value=0.0, max_value=0.6),
)
def test_fec_residual_loss_never_worse_than_raw(k, r, p):
    assert BlockCode(k, r).residual_loss(p) <= p + 1e-12


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

    def source():
        for i in range(40):
            rc.send(i, size_bytes=1200)
            yield sim.timeout(0.05)  # the outage bisects the transfer

    sim.process(source())
    sim.run()
    assert got == list(range(40))
    assert rc.failed == 0
    assert rc.retransmissions > 0  # the outage really did cost traffic
    assert topo.link("a", "b").stats.dropped_down > 0


@pytest.mark.faults
def test_fec_decoder_prunes_old_generations():
    """Regression: decoder memory used to grow without bound."""
    code = BlockCode(k=2, r=1)
    decoder = FecDecoder(code, on_deliver=lambda p: None, horizon=8)
    for gen in range(100):
        decoder.register_source(gen, 0, f"g{gen}p0")
        decoder.register_source(gen, 1, f"g{gen}p1")
        decoder.receive(gen, 0, f"g{gen}p0", False)
        decoder.receive(gen, 1, f"g{gen}p1", False)
    assert decoder.resident_generations <= 8
    assert len(decoder._source_payloads) <= 8
    assert decoder.generations_retired == 92
    # Counters survive retirement.
    assert decoder.delivered_direct == 200
    # A straggler from a retired generation is discarded, not re-delivered.
    decoder.receive(0, 4, ("repair", 0, 0), True)
    assert decoder.late_discarded == 1
    assert decoder.delivered_direct == 200


@pytest.mark.faults
def test_fec_recovery_still_works_within_horizon():
    code = BlockCode(k=2, r=1)
    delivered = []
    decoder = FecDecoder(code, on_deliver=delivered.append, horizon=4)
    for gen in range(10):
        decoder.register_source(gen, 0, f"g{gen}p0")
        decoder.register_source(gen, 1, f"g{gen}p1")
        decoder.receive(gen, 0, f"g{gen}p0", False)        # source 1 erased
        decoder.receive(gen, 2, ("repair", gen, 0), True)  # repair recovers it
    assert delivered == [p for gen in range(10)
                         for p in (f"g{gen}p0", f"g{gen}p1")]
    assert decoder.delivered_recovered == 10
    # Completed generations free their recovery payloads immediately.
    assert decoder._source_payloads == {}


def test_fec_horizon_validation():
    with pytest.raises(ValueError):
        FecDecoder(BlockCode(k=2, r=1), on_deliver=lambda p: None, horizon=0)
