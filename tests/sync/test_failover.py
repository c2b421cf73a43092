"""Server crash/restart and client failover under injected faults."""

import itertools

import pytest

from repro.avatar.state import AvatarState
from repro.net.faults import FaultInjector, FaultLog, ServerCrashSchedule
from repro.simkit import Simulator
from repro.sync.client import SyncClient
from repro.sync.migration import FailoverController, MigratableClient
from repro.sync.protocol import ClientUpdate
from repro.sync.server import SyncServer
from repro.workload.traces import SeatedMotion

pytestmark = pytest.mark.faults


def drive_world(sim, server, duration, n_others=3):
    """Feed background entities so the server has something to snapshot."""
    traces = [
        SeatedMotion((i * 1.0, 0.0, 1.2), sim.rng.stream(f"{server.name}-t{i}"))
        for i in range(n_others)
    ]

    seqs = itertools.count()

    def driver():
        seq = next(seqs)
        for i, trace in enumerate(traces):
            server.ingest(ClientUpdate(
                f"{server.name}-bg{i}",
                AvatarState(f"{server.name}-bg{i}", sim.now, trace(sim.now),
                            seq=seq),
                seq,
            ))
        return 0.05

    sim.every(duration, driver)


def delayed_path(sim, migratable_holder, server, delay=0.02):
    def path(snapshot):
        sim.call_later(
            delay,
            lambda: migratable_holder["m"].note_snapshot(
                snapshot, origin=server.name),
        )
    return path


def attach_client(sim, server):
    holder = {}
    client = SyncClient(sim, "student", transmit=lambda u: None)
    migratable = MigratableClient(
        sim, client, server, delayed_path(sim, holder, server))
    holder["m"] = migratable
    return migratable, holder


def test_crash_clears_state_and_stops_snapshots():
    sim = Simulator(seed=1)
    server = SyncServer(sim, name="primary", tick_rate_hz=20.0)
    drive_world(sim, server, duration=4.0)
    server.run(duration=4.0)
    migratable, _ = attach_client(sim, server)
    sim.call_later(2.0, server.crash)
    sim.run()
    assert server.crashed
    assert server.crash_count == 1
    assert server.n_subscribers == 0
    # Snapshots stopped at the crash (plus one in-flight path delay).
    assert migratable.last_snapshot_at == pytest.approx(2.0, abs=0.1)
    assert migratable.client.snapshots_received > 0


def test_crashed_server_rejects_everything():
    sim = Simulator(seed=2)
    server = SyncServer(sim, name="x")
    server.crash()
    with pytest.raises(RuntimeError):
        server.subscribe("c", lambda s: None)
    with pytest.raises(RuntimeError):
        server.run(duration=1.0)
    server.ingest(ClientUpdate("c", AvatarState("c", 0.0, None), 0))
    assert len(server._pending) == 0
    with pytest.raises(RuntimeError):
        SyncServer(sim, name="healthy").restart()  # not crashed


def test_restart_resumes_with_fresh_keyframes():
    sim = Simulator(seed=3)
    server = SyncServer(sim, name="primary", tick_rate_hz=20.0)
    drive_world(sim, server, duration=6.0)
    server.run(duration=6.0)
    received = []
    server.subscribe("viewer", received.append)

    def crash_and_restart():
        server.crash()
        # Immediately after: the interrupt freed the tick process, so a
        # restart inside the same event cascade can re-arm run().
        server.restart()
        server.run(duration=4.0)
        server.subscribe("viewer", received.append)
        received.clear()  # only snapshots after the re-attach matter

    sim.call_later(2.0, crash_and_restart)
    sim.run()
    assert received, "restarted server never ticked"
    assert received[0].full is True  # fresh delta state opens with a keyframe
    assert server.tick_count > 0
    assert not server.crashed


def test_failover_controller_moves_client_to_standby():
    sim = Simulator(seed=4)
    primary = SyncServer(sim, name="primary", tick_rate_hz=20.0)
    standby = SyncServer(sim, name="standby", tick_rate_hz=20.0)
    for server in (primary, standby):
        drive_world(sim, server, duration=8.0)
        server.run(duration=8.0)

    migratable, holder = attach_client(sim, primary)
    controller = FailoverController(sim, migratable,
                                    detection_timeout=0.3, check_period=0.05)
    controller.add_standby(standby, delayed_path(sim, holder, standby))
    controller.run(duration=8.0)

    injector = FaultInjector(sim)
    injector.server_crash(primary, ServerCrashSchedule([(3.0, None)]))
    sim.run()

    assert migratable.current_server is standby
    assert migratable.failovers == 1
    assert standby.n_subscribers == 1
    assert controller.failover_times and controller.failover_times[0] > 3.3
    # Blackout = detection + handover; finite and bounded.
    assert migratable.blackout_s is not None
    assert 0.3 < migratable.blackout_s < 1.0
    assert migratable.first_new_snapshot_was_full is True
    # The client now replicates the standby's world.
    assert any(e.startswith("standby-bg")
               for e in migratable.client.known_entities)
    assert [event.kind for event in injector.log] == ["server_crash"]


def test_crash_schedule_restart_reattaches_via_controller():
    sim = Simulator(seed=5)
    primary = SyncServer(sim, name="primary", tick_rate_hz=20.0)
    drive_world(sim, primary, duration=8.0)
    primary.run(duration=8.0)

    migratable, holder = attach_client(sim, primary)
    controller = FailoverController(sim, migratable,
                                    detection_timeout=0.3, check_period=0.05)
    controller.run(duration=8.0)

    log = FaultLog()
    ServerCrashSchedule([(2.0, 2.5)]).apply(
        sim, primary, log=log, run_until=8.0,
        on_restart=lambda server: controller.add_standby(
            server, delayed_path(sim, holder, server)),
    )
    sim.run()

    assert [event.kind for event in log] == ["server_crash", "server_restart"]
    assert migratable.failovers == 1
    assert migratable.current_server is primary
    assert primary.n_subscribers == 1
    assert migratable.blackout_s is not None
    assert migratable.blackout_s < 1.5
    assert migratable.first_new_snapshot_was_full is True


def test_failover_skips_dead_standbys():
    sim = Simulator(seed=6)
    primary = SyncServer(sim, name="primary", tick_rate_hz=20.0)
    dead_standby = SyncServer(sim, name="dead", tick_rate_hz=20.0)
    live_standby = SyncServer(sim, name="live", tick_rate_hz=20.0)
    for server in (primary, live_standby):
        drive_world(sim, server, duration=6.0)
        server.run(duration=6.0)
    dead_standby.crash()

    migratable, holder = attach_client(sim, primary)
    controller = FailoverController(sim, migratable,
                                    detection_timeout=0.3, check_period=0.05)
    controller.add_standby(dead_standby, delayed_path(sim, holder, dead_standby))
    controller.add_standby(live_standby, delayed_path(sim, holder, live_standby))
    controller.run(duration=6.0)
    sim.call_later(2.0, primary.crash)
    sim.run()

    assert migratable.current_server is live_standby
    assert controller.standbys_remaining == 0
    assert migratable.blackout_s is not None


def _failover_fingerprint(seed):
    sim = Simulator(seed=seed)
    primary = SyncServer(sim, name="primary", tick_rate_hz=20.0)
    standby = SyncServer(sim, name="standby", tick_rate_hz=20.0)
    for server in (primary, standby):
        drive_world(sim, server, duration=6.0)
        server.run(duration=6.0)
    migratable, holder = attach_client(sim, primary)
    controller = FailoverController(sim, migratable,
                                    detection_timeout=0.3, check_period=0.05)
    controller.add_standby(standby, delayed_path(sim, holder, standby))
    controller.run(duration=6.0)
    injector = FaultInjector(sim)
    injector.server_crash(primary, ServerCrashSchedule([(2.0, None)]))
    sim.run()
    return "\n".join([
        injector.fingerprint(),
        repr(migratable.blackout_s),
        repr(controller.failover_times),
        repr(migratable.client.snapshots_received),
    ])


def test_failover_blackout_replays_byte_for_byte():
    assert _failover_fingerprint(77) == _failover_fingerprint(77)
