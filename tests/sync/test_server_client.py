"""Integration-style tests for the sync server and clients."""

import numpy as np
import pytest

from repro.net.geo import WORLD_CITIES
from repro.net.topology import Site, Topology
from repro.simkit import Simulator
from repro.sync.client import SyncClient
from repro.sync.interest import BroadcastInterest, InterestConfig, InterestManager
from repro.sync.protocol import ClientUpdate, ServerSnapshot
from repro.sync.server import ServerCostModel, SyncServer
from repro.workload.traces import SeatedMotion
from tests.oracles.consistency import ConsistencyProbe


def wire_clients(sim, server, n, spacing=1.0, one_way_delay=0.005):
    """n clients on seats, connected with a fixed symmetric delay."""
    clients = []
    for i in range(n):
        cid = f"c{i}"
        trace = SeatedMotion(
            (i % 10 * spacing, i // 10 * spacing, 1.2), sim.rng.stream(f"t{i}")
        )

        def transmit(update, cid=cid):
            sim.call_later(one_way_delay, lambda: server.ingest(update))

        client = SyncClient(sim, cid, transmit, update_rate_hz=20.0,
                            interpolation_delay=0.1)
        client.local_pose = trace
        server.subscribe(
            cid,
            lambda snapshot, c=client: sim.call_later(
                one_way_delay, lambda: c.on_snapshot(snapshot)
            ),
        )
        clients.append((client, trace))
    return clients


def test_two_clients_see_each_other():
    sim = Simulator(seed=1)
    server = SyncServer(sim, tick_rate_hz=20.0)
    clients = wire_clients(sim, server, 2)
    server.run(duration=5.0)
    for client, _trace in clients:
        client.run(duration=5.0)
    sim.run()
    c0, c1 = clients[0][0], clients[1][0]
    assert "c1" in c0.known_entities
    assert "c0" in c1.known_entities
    states = c0.remote_states()
    assert "c1" in states


def test_replication_divergence_is_small_for_seated_motion():
    sim = Simulator(seed=2)
    server = SyncServer(sim, tick_rate_hz=20.0)
    clients = wire_clients(sim, server, 4)
    server.run(duration=8.0)
    for client, _trace in clients:
        client.run(duration=8.0)
    probe = ConsistencyProbe(
        sim,
        truths={f"c{i}": trace for i, (_c, trace) in enumerate(clients)},
        views={
            f"c{i}": (lambda c=client: c.remote_states())
            for i, (client, _t) in enumerate(clients)
        },
        interval=0.2,
    )
    probe.run(duration=6.0, warmup=2.0)
    sim.run()
    assert probe.mean_visibility() == 1.0
    # Seated sway is cm-scale; replication error must stay under ~10 cm.
    assert probe.mean_divergence_m() < 0.10


def test_snapshot_latency_reflects_network():
    sim = Simulator(seed=3)
    server = SyncServer(sim, tick_rate_hz=20.0)
    clients = wire_clients(sim, server, 2, one_way_delay=0.050)
    server.run(duration=4.0)
    for client, _trace in clients:
        client.run(duration=4.0)
    sim.run()
    latency = clients[0][0].snapshot_latency.summary()
    assert latency.mean == pytest.approx(0.050, abs=0.005)


def test_interest_limits_what_clients_receive():
    sim = Simulator(seed=4)
    interest = InterestManager(InterestConfig(radius_m=1.5, max_entities=100))
    server = SyncServer(sim, tick_rate_hz=10.0, interest=interest)
    # 10 clients spaced 1 m apart in a row: each sees only neighbours.
    clients = wire_clients(sim, server, 10, spacing=1.0)
    server.run(duration=5.0)
    for client, _trace in clients:
        client.run(duration=5.0)
    sim.run()
    c0 = clients[0][0]
    assert "c1" in c0.known_entities
    assert "c9" not in c0.known_entities


def test_unsubscribe_removes_entity():
    sim = Simulator(seed=5)
    server = SyncServer(sim, tick_rate_hz=20.0)
    clients = wire_clients(sim, server, 3)
    server.run(duration=6.0)
    for client, _trace in clients:
        client.run(duration=2.0)

    def leave():
        server.unsubscribe("c2")

    sim.call_later(3.0, leave)
    sim.run()
    assert server.n_subscribers == 2
    assert "c2" not in server.world.entities


def test_overloaded_server_stretches_ticks():
    sim = Simulator(seed=6)
    heavy = ServerCostModel(base=0.2)  # 200 ms per tick >> 50 ms period
    server = SyncServer(sim, tick_rate_hz=20.0, cost_model=heavy)
    server.run(duration=4.0)
    sim.run()
    achieved = server.achieved_tick_rate(4.0)
    assert achieved < 6.0  # nowhere near the configured 20 Hz


def test_server_metrics_accumulate():
    sim = Simulator(seed=7)
    server = SyncServer(sim, tick_rate_hz=20.0)
    clients = wire_clients(sim, server, 2)
    server.run(duration=3.0)
    for client, _trace in clients:
        client.run(duration=3.0)
    sim.run()
    assert server.metrics.counter("updates_ingested") > 0
    assert server.metrics.counter("snapshot_bytes") > 0
    assert server.egress_bytes_per_client_s(3.0) > 0


def test_server_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        SyncServer(sim, tick_rate_hz=0.0)
    server = SyncServer(sim)
    server.run(duration=1.0)
    with pytest.raises(RuntimeError):
        server.run(duration=1.0)
    with pytest.raises(ValueError):
        server.achieved_tick_rate(0.0)


def test_egress_rejects_nonpositive_duration():
    """Like ``achieved_tick_rate``, an explicit non-positive duration is
    an error (it used to read as 0.0 bytes/s), on an idle server too."""
    sim = Simulator(seed=4)
    idle = SyncServer(sim)
    server = SyncServer(sim, tick_rate_hz=20.0)
    clients = wire_clients(sim, server, 2)
    server.run(duration=1.0)
    for client, _trace in clients:
        client.run(duration=1.0)
    sim.run()
    assert server.egress_bytes_per_client_s(1.0) > 0
    for target in (server, idle):
        for duration in (0.0, -1.0):
            with pytest.raises(ValueError):
                target.egress_bytes_per_client_s(duration)


def test_server_rejects_nonpositive_duration():
    sim = Simulator()
    server = SyncServer(sim)
    with pytest.raises(ValueError):
        server.run(duration=0.0)
    with pytest.raises(ValueError):
        server.run(duration=-1.0)
    # A rejected run must not leave the server flagged as running.
    server.run(duration=1.0)


def test_server_running_flag_resets_after_failed_tick():
    sim = Simulator(seed=11)
    server = SyncServer(sim, tick_rate_hz=20.0)

    from repro.avatar.state import AvatarState
    from repro.sensing.pose import Pose

    def exploding_send(snapshot):
        raise RuntimeError("subscriber send blew up")

    server.subscribe("bad", exploding_send)
    # Another avatar near the origin so "bad" has something to receive.
    server.world.apply(AvatarState("other", 0.0, Pose(np.array([0.0, 1.0, 0.0]))))
    server.run(duration=2.0)
    with pytest.raises(RuntimeError, match="blew up"):
        sim.run()
    # The failed tick process released the flag, so a retry is possible.
    server.unsubscribe("bad")
    server.run(duration=1.0)
    sim.run()
    assert server.tick_count > 0


def test_server_running_flag_resets_after_interrupt():
    sim = Simulator(seed=12)
    server = SyncServer(sim, tick_rate_hz=20.0)
    proc = server.run(duration=10.0)

    sim.call_later(1.0, proc.interrupt)
    sim.run(until=2.0)
    assert not proc.is_alive
    server.run(duration=1.0)  # retry does not raise "already running"
    sim.run()


def test_measurement_windows_reset_between_runs():
    sim = Simulator(seed=13)
    server = SyncServer(sim, tick_rate_hz=20.0)
    clients = wire_clients(sim, server, 2)
    for client, _trace in clients:
        client.run(duration=7.0)

    # duration=2.0 is the float-accumulation edge: 40 ticks of 0.05 s sum
    # to 2.000000000000001, so without the final-sleep clamp the first run
    # process outlives `sim.run(until=2.0)` and the second run() raises.
    server.run(duration=2.0)
    sim.run(until=2.0)
    first_rate = server.achieved_tick_rate()
    first_ticks = server.tick_count
    first_egress = server.egress_bytes_per_client_s()
    assert first_rate == pytest.approx(20.0, rel=0.1)
    assert first_egress > 0

    server.run(duration=2.0)
    sim.run(until=4.0)
    # The second window reports only its own ticks/bytes: dividing the
    # lifetime counter by one window's duration would double the rate.
    second_rate = server.achieved_tick_rate()
    assert server.tick_count > first_ticks
    assert second_rate == pytest.approx(20.0, rel=0.1)
    assert server.achieved_tick_rate(2.0) == pytest.approx(second_rate, rel=0.05)
    assert server.egress_bytes_per_client_s() < 1.5 * first_egress


def test_broadcast_room_delivers_everyone_through_the_tick():
    """``BroadcastInterest`` runs through the server's one tick: every
    subscriber learns every other entity, and each tick is charged the
    full subscribers x entities pair scan."""
    sim = Simulator(seed=14)
    server = SyncServer(sim, tick_rate_hz=20.0, interest=BroadcastInterest())
    clients = wire_clients(sim, server, 4)
    server.run(duration=2.0)
    for client, _trace in clients:
        client.run(duration=2.0)
    sim.run()
    ids = sorted(client.client_id for client, _trace in clients)
    for client, _trace in clients:
        assert client.known_entities == [
            e for e in ids if e != client.client_id]
    # After the first round of updates every tick sees all 4 entities.
    assert server.interest.last_pairs_scanned == 4 * 4
    assert server.metrics.counter("interest_pairs_scanned") <= \
        4 * 4 * server.tick_count


def test_client_requires_local_pose():
    sim = Simulator()
    client = SyncClient(sim, "x", transmit=lambda u: None)
    with pytest.raises(RuntimeError):
        client.publish_once()
    with pytest.raises(ValueError):
        SyncClient(sim, "x", transmit=lambda u: None, update_rate_hz=0.0)


def test_client_ignores_own_echo():
    sim = Simulator()
    client = SyncClient(sim, "me", transmit=lambda u: None)
    from repro.avatar.state import AvatarState
    from repro.sensing.pose import Pose
    snapshot = ServerSnapshot(
        tick=0, server_time=0.0,
        states=[AvatarState("me", 0.0, Pose()), AvatarState("other", 0.0, Pose())],
    )
    client.on_snapshot(snapshot)
    assert client.known_entities == ["other"]
    assert client.staleness("other") == 0.0
    assert client.staleness("stranger") == float("inf")
