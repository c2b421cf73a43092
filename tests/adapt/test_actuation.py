"""Actuation is real: decimation/LOD knobs change what servers do.

The controller is only as good as its knobs.  These tests pin the two
server-side actuation paths the adaptation loop turns — per-client
snapshot decimation and advisory LOD hints — plus the federation-level
replication that keeps the policy with the user through moves and newly
provisioned shards.
"""

import pytest

from repro.cloud.regions import RegionalPlan
from repro.simkit import Simulator
from repro.sync.client import SyncClient
from repro.sync.federation import ShardedSyncService
from repro.sync.server import SyncServer
from repro.workload.traces import SeatedMotion

pytestmark = pytest.mark.adapt

DELAY = 0.005
RUN_S = 5.0


def wire_clients(sim, server, n):
    """n seated clients with symmetric fixed-delay links (test harness)."""
    clients = []
    for i in range(n):
        cid = f"c{i}"
        trace = SeatedMotion((i * 1.0, 0.0, 1.2), sim.rng.stream(f"t{i}"))

        def transmit(update, cid=cid):
            sim.call_later(DELAY, lambda: server.ingest(update))

        client = SyncClient(sim, cid, transmit, update_rate_hz=20.0,
                            interpolation_delay=0.1)
        client.local_pose = trace
        server.subscribe(
            cid,
            lambda snapshot, c=client: sim.call_later(
                DELAY, lambda: c.on_snapshot(snapshot)
            ),
        )
        clients.append(client)
    return clients


def run_decimated(factor, seed=3):
    sim = Simulator(seed=seed)
    server = SyncServer(sim, tick_rate_hz=20.0)
    clients = wire_clients(sim, server, 3)
    server.set_snapshot_decimation("c0", factor)
    server.run(duration=RUN_S)
    for client in clients:
        client.run(duration=RUN_S)
    sim.run()
    return server, clients


def test_decimation_reduces_snapshot_rate():
    factor = 4
    server, clients = run_decimated(factor)
    full = clients[1].snapshots_received
    decimated = clients[0].snapshots_received
    assert full > 50  # the run actually ticked
    # 1-in-4 service, with slack for phase alignment at the run edges.
    assert decimated == pytest.approx(full / factor, rel=0.15)
    assert server.metrics.counter("snapshots_decimated") >= (
        full - decimated - factor)


def test_decimated_stream_converges_to_full_stream_state():
    """Skipped ticks accumulate into the next delta: no state is lost."""
    server, clients = run_decimated(3)
    observer = clients[1].latest_states()
    coarse = clients[0].latest_states()
    assert set(coarse) >= {"c1", "c2"}
    # After the publishers stop and the server keeps ticking, the
    # decimated client's view reaches the same newest-seq state the
    # full-rate observer holds.
    assert coarse["c2"].seq == observer["c2"].seq
    assert coarse["c2"].pose.position == pytest.approx(
        observer["c2"].pose.position, abs=1e-9)


def test_decimation_is_deterministic_replay(seed=11):
    counts = []
    for _ in range(2):
        _server, clients = run_decimated(3, seed=seed)
        counts.append([c.snapshots_received for c in clients])
    assert counts[0] == counts[1]


def test_decimation_factor_validation_and_reset():
    sim = Simulator(seed=0)
    server = SyncServer(sim)
    with pytest.raises(ValueError):
        server.set_snapshot_decimation("c0", 0)
    server.set_snapshot_decimation("c0", 4)
    assert server.snapshot_decimation("c0") == 4
    server.set_snapshot_decimation("c0", 1)
    assert server.snapshot_decimation("c0") == 1
    assert server.snapshot_decimation("never_set") == 1


def test_lod_hint_validates_and_clears():
    sim = Simulator(seed=0)
    server = SyncServer(sim)
    with pytest.raises(KeyError):
        server.set_lod_hint("c0", "ultra")
    server.set_lod_hint("c0", "medium")
    assert server.lod_hint("c0") == "medium"
    server.set_lod_hint("c0", None)
    assert server.lod_hint("c0") is None


# -- federation-level knobs -----------------------------------------------


def make_service(n_users=4, k=2, seed=5, **kwargs):
    sim = Simulator(seed=seed)
    sites = [f"s{i}" for i in range(k)]
    users = [f"u{i:02d}" for i in range(n_users)]
    plan = RegionalPlan(
        sites=sites,
        assignment={user: sites[i % k] for i, user in enumerate(users)},
        rtts={user: 0.02 for user in users},
    )
    return sim, ShardedSyncService(sim, plan, **kwargs), users


def test_service_knobs_replicate_to_every_shard():
    _sim, service, users = make_service()
    service.set_snapshot_decimation("u00", 3)
    service.set_lod_hint("u00", "low")
    assert service.snapshot_decimation("u00") == 3
    assert service.lod_hint("u00") == "low"
    for shard in service.shards.values():
        assert shard.snapshot_decimation("u00") == 3
        assert shard.lod_hint("u00") == "low"
    # Clearing replicates too.
    service.set_snapshot_decimation("u00", 1)
    service.set_lod_hint("u00", None)
    for shard in service.shards.values():
        assert shard.snapshot_decimation("u00") == 1
        assert shard.lod_hint("u00") is None


def test_new_site_inherits_adaptation_policy():
    _sim, service, _users = make_service()
    service.set_snapshot_decimation("u01", 2)
    service.set_lod_hint("u01", "billboard")
    shard = service.add_site("s_late")
    assert shard.snapshot_decimation("u01") == 2
    assert shard.lod_hint("u01") == "billboard"


def test_policy_follows_user_through_voluntary_move():
    _sim, service, _users = make_service()
    service.set_snapshot_decimation("u00", 4)
    federated = service.add_client("u00")
    old_home = federated.home
    new_site = next(s for s in service.sites if s != old_home)
    service.move_user("u00", new_site)
    assert federated.home == new_site
    # The shard now serving the user already holds the policy.
    assert service.shards[new_site].snapshot_decimation("u00") == 4


def test_downlink_accessor_is_stable_and_validated():
    _sim, service, _users = make_service()
    service.add_client("u00")
    link = service.downlink("u00")
    assert link is service.downlink("u00")  # cached, injectable
    assert link is service.downlink("u00", site=service.clients["u00"].home)
    # Unattached users resolve through the plan assignment.
    link_u1 = service.downlink("u01")
    assert link_u1 is not link
    with pytest.raises(KeyError):
        service.downlink("ghost")


def test_service_decimation_validation():
    _sim, service, _users = make_service()
    with pytest.raises(ValueError):
        service.set_snapshot_decimation("u00", 0)
    with pytest.raises(KeyError):
        service.set_lod_hint("u00", "nope")
