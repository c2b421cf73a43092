"""Tests for client migration between regional sync servers."""

import itertools

import pytest

from repro.simkit import Simulator
from repro.sync.client import SyncClient
from repro.sync.migration import MigratableClient
from repro.sync.server import SyncServer
from repro.workload.traces import SeatedMotion


def setup_world(sim, server, duration, n_others=3):
    """Populate a server with background entities so snapshots flow."""
    from repro.avatar.state import AvatarState
    from repro.sync.protocol import ClientUpdate

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


def make_migratable(sim, server_a, delay=0.02):
    client = SyncClient(sim, "mover", transmit=lambda u: None)
    holder = {}

    def path_a(snapshot):
        sim.call_later(
            delay,
            lambda: holder["m"].note_snapshot(snapshot, origin=server_a.name),
        )

    migratable = MigratableClient(sim, client, server_a, path_a)
    holder["m"] = migratable
    return migratable


def test_migration_resumes_with_keyframe_and_short_blackout():
    sim = Simulator(seed=1)
    server_a = SyncServer(sim, name="asia", tick_rate_hz=20.0)
    server_b = SyncServer(sim, name="europe", tick_rate_hz=20.0)
    setup_world(sim, server_a, duration=10.0)
    setup_world(sim, server_b, duration=10.0)
    server_a.run(duration=10.0)
    server_b.run(duration=10.0)

    migratable = make_migratable(sim, server_a)

    def do_migrate():
        def path_b(snapshot):
            sim.call_later(
                0.08,
                lambda: migratable.note_snapshot(snapshot, origin=server_b.name),
            )

        migratable.migrate(server_b, path_b)

    sim.call_later(5.0, do_migrate)
    sim.run()
    # The client saw entities from the old region before...
    assert any(e.startswith("asia-bg") for e in migratable.client.known_entities)
    # ...and from the new region after.
    assert any(e.startswith("europe-bg") for e in migratable.client.known_entities)
    # The handover opened with a keyframe and a sub-quarter-second blackout.
    assert migratable.first_new_snapshot_was_full is True
    assert migratable.blackout_s is not None
    assert migratable.blackout_s < 0.25
    assert server_a.n_subscribers == 0
    assert server_b.n_subscribers == 1


def test_migrate_to_same_server_rejected():
    sim = Simulator(seed=2)
    server = SyncServer(sim, name="only")
    migratable = make_migratable(sim, server)
    with pytest.raises(ValueError):
        migratable.migrate(server, lambda snapshot: None)


def test_snapshot_freshness_tracked():
    sim = Simulator(seed=3)
    server = SyncServer(sim, name="x", tick_rate_hz=10.0)
    setup_world(sim, server, duration=2.0, n_others=1)
    server.run(duration=2.0)
    migratable = make_migratable(sim, server)
    sim.run()
    assert migratable.last_snapshot_at is not None
    assert migratable.blackout_s is None  # never migrated
