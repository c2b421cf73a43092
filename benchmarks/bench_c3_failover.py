"""Experiment C3e (Section 3.3): session continuity through failures.

The case for regional servers — WAN round-trips eat the 100 ms
interaction budget — only matters if sessions *survive* the failures a
worldwide deployment actually sees.  This bench injects two canonical
faults with the deterministic fault subsystem (`repro.net.faults`) and
measures the recovery numbers the blueprint's robustness story needs:

* a regional sync-server crash — the client's failure detector notices
  the snapshot silence and re-attaches to a standby region; we report
  the end-to-end *blackout* (detection + handover + first keyframe);
* a mid-transfer WAN link outage under a reliable (ARQ) slide transfer —
  the transfer must complete after recovery with no head-of-line
  deadlock; we report the delivery gap and retransmission cost.

Both scenarios are pure functions of the seed: the run is executed twice
and the report asserts the fingerprints are byte-for-byte identical.

Standalone usage::

    PYTHONPATH=src python benchmarks/bench_c3_failover.py [--quick]
"""

import sys
from pathlib import Path

if __package__ in (None, ""):  # direct `python benchmarks/bench_*.py` run
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.conftest import emit, header
from repro.avatar.state import AvatarState
from repro.net.faults import (
    FaultInjector,
    LinkOutageSchedule,
    ServerCrashSchedule,
)
from repro.obs.flight import FlightRecorder
from repro.obs.slo import SloEngine, SloSpec
from repro.net.geo import WORLD_CITIES
from repro.net.packet import Packet
from repro.net.topology import Site, Topology
from repro.net.transport import ReliableChannel
from repro.simkit import Simulator
from repro.sync.client import SyncClient
from repro.sync.migration import FailoverController, MigratableClient
from repro.sync.protocol import ClientUpdate
from repro.sync.server import SyncServer
from repro.workload.traces import SeatedMotion

SEED = 42
DURATION = 12.0
QUICK_DURATION = 6.0
CHUNKS = 60
QUICK_CHUNKS = 24
DETECTION_TIMEOUT = 0.3


def _drive_world(sim, server, duration, n_others=4):
    traces = [
        SeatedMotion((i * 1.0, 0.0, 1.2), sim.rng.stream(f"{server.name}-t{i}"))
        for i in range(n_others)
    ]

    seq = 0

    def drive():
        nonlocal seq
        for i, trace in enumerate(traces):
            server.ingest(ClientUpdate(
                f"{server.name}-bg{i}",
                AvatarState(f"{server.name}-bg{i}", sim.now, trace(sim.now),
                            seq=seq),
                seq,
            ))
        seq += 1
        return 0.05

    sim.every(duration, drive)


def run_server_crash_failover(seed: int, duration: float,
                              incident_dir=None, obs: bool = False) -> dict:
    """A student in Daejeon rides out the Tokyo region crashing.

    The SLO engine judges the run continuously: a snapshot-age gauge (a
    silence detector — sample streams stop during a blackout, a gauge
    keeps growing) breaches during the crash window, the flight recorder
    dumps ``INCIDENT_<id>.json`` into ``incident_dir`` (when given), and
    the hysteresis clears the breach after failover — the full
    breach → incident → recovery sequence in one seeded scenario.
    """
    sim = Simulator(seed=seed, obs=obs)
    topo = Topology(sim)
    for city in ("kaist", "tokyo", "seoul"):
        topo.add_site(Site(city, WORLD_CITIES[city]))
    topo.connect("kaist", "tokyo", rate_bps=100e6)
    topo.connect("kaist", "seoul", rate_bps=100e6)

    primary = SyncServer(sim, name="tokyo", tick_rate_hz=20.0)
    standby = SyncServer(sim, name="seoul", tick_rate_hz=20.0)
    for server in (primary, standby):
        _drive_world(sim, server, duration)
        server.run(duration=duration)

    holder = {}

    def network_path(server):
        channel = topo.channel(server.name, "kaist")

        def path(snapshot):
            packet = Packet(src=server.name, dst="kaist",
                            size_bytes=max(1, snapshot.size_bytes),
                            kind="snapshot", payload=snapshot,
                            created_at=sim.now)
            channel.send(packet, lambda p: holder["m"].note_snapshot(
                p.payload, origin=server.name))

        return path

    client = SyncClient(sim, "kaist-student", transmit=lambda u: None)
    migratable = MigratableClient(sim, client, primary, network_path(primary))
    holder["m"] = migratable
    controller = FailoverController(
        sim, migratable,
        detection_timeout=DETECTION_TIMEOUT, check_period=0.05,
    )
    controller.add_standby(standby, network_path(standby))
    controller.run(duration=duration)

    crash_at = round(duration * 0.4, 6)
    injector = FaultInjector(sim)
    injector.server_crash(primary, ServerCrashSchedule([(crash_at, None)]))

    # The judgment layer: snapshot age is a *gauge* probe because during
    # a blackout the latency sample stream goes silent — absence of
    # samples can't trip a sample-based SLO, but the age keeps growing.
    def snapshot_age() -> float:
        if migratable.last_snapshot_at is None:
            return 0.0
        return sim.now - migratable.last_snapshot_at

    engine = SloEngine()
    engine.watch_gauge(
        SloSpec("snapshot_age", objective=0.2, unit="s",
                description="seconds since the client's last snapshot",
                budget_fraction=0.05, fast_window_s=0.5, slow_window_s=1.0,
                breach_burn=2.0, warn_burn=1.0, clear_polls=3),
        snapshot_age)
    flight = FlightRecorder(window_s=4.0, tracer=sim.obs,
                            fault_log=injector.log, prefix="c3e")
    flight.watch_gauge("snapshot_age_s", snapshot_age)
    flight.watch_samples(
        "snapshot_latency_s", lambda: client.snapshot_latency.samples)
    if incident_dir is not None:
        flight.bind(engine, incident_dir)

    def judge():
        flight.poll(sim.now)
        engine.evaluate(sim.now)
        return 0.1

    sim.every(duration, judge)
    sim.run()

    return {
        "crash_at": crash_at,
        "blackout_s": migratable.blackout_s,
        "failover_at": controller.failover_times[0]
        if controller.failover_times else None,
        "failovers": migratable.failovers,
        "keyframe_reattach": migratable.first_new_snapshot_was_full,
        "snapshots": client.snapshots_received,
        "fault_log": injector.fingerprint(),
        "slo_transitions": engine.fingerprint(),
        "slo_breaches": engine.breach_count(),
        "slo_final": engine.state("snapshot_age"),
        "incidents": list(flight.dumped),
    }


def run_reliable_outage_recovery(seed: int, duration: float,
                                 chunks: int) -> dict:
    """A reliable slide transfer crossing a WAN outage mid-transfer."""
    sim = Simulator(seed=seed)
    topo = Topology(sim)
    topo.add_site(Site("hk", WORLD_CITIES["hkust_cwb"]))
    topo.add_site(Site("gz", WORLD_CITIES["hkust_gz"]))
    topo.connect("hk", "gz", rate_bps=20e6, jitter_std=0.0005)

    outage = (round(duration * 0.25, 6), round(duration * 0.45, 6))
    injector = FaultInjector(sim)
    for link in (topo.link("hk", "gz"), topo.link("gz", "hk")):
        injector.outage(link, LinkOutageSchedule([outage]))

    deliveries = []
    rc = ReliableChannel(
        sim, topo.channel("hk", "gz"), topo.channel("gz", "hk"),
        "hk", "gz",
        on_deliver=lambda payload: deliveries.append((sim.now, payload)),
    )

    def source():
        period = duration * 0.6 / chunks  # finish sending inside the horizon
        for i in range(chunks):
            rc.send(i, size_bytes=8000)
            yield sim.timeout(period)

    sim.process(source())
    sim.run()

    outage_end = outage[1]
    post = [t for t, _ in deliveries if t >= outage_end]
    gaps = [b - a for (a, _), (b, _) in zip(deliveries, deliveries[1:])]
    forward = topo.link("hk", "gz")
    return {
        "outage": outage,
        "chunks": chunks,
        "delivered": rc.delivered,
        "failed": rc.failed,
        "skipped": rc.skipped,
        "in_order": [p for _, p in deliveries] == sorted(p for _, p in deliveries),
        "recovery_s": round(min(post) - outage_end, 9) if post else None,
        "max_gap_s": round(max(gaps), 9) if gaps else None,
        "completed_at": round(deliveries[-1][0], 9) if deliveries else None,
        "retransmissions": rc.retransmissions,
        "dropped_down": forward.stats.dropped_down,
        "fault_log": injector.fingerprint(),
    }


def run_c3e(duration: float = DURATION, chunks: int = CHUNKS,
            seed: int = SEED, tracer=None, incident_dir=None) -> dict:
    import tempfile

    from benchmarks._emit import incidents_identical, wall_phase

    obs = incident_dir is not None
    with wall_phase(tracer, "failover"):
        failover = run_server_crash_failover(
            seed, duration, incident_dir=incident_dir, obs=obs)
    with wall_phase(tracer, "reliable"):
        reliable = run_reliable_outage_recovery(seed, duration, chunks)
    results = {"failover": failover, "reliable": reliable}
    with wall_phase(tracer, "replay"):
        replay_dir = tempfile.mkdtemp() if incident_dir is not None else None
        replay = {
            "failover": run_server_crash_failover(
                seed, duration, incident_dir=replay_dir, obs=obs),
            "reliable": run_reliable_outage_recovery(seed, duration, chunks),
        }
    results["replay_identical"] = repr(results["failover"]) == repr(
        replay["failover"]) and repr(results["reliable"]) == repr(
        replay["reliable"])
    if incident_dir is not None:
        # The incident dumps themselves must replay byte-for-byte: no
        # wall clocks, no temp paths, no iteration-order leaks inside.
        results["incident_identical"] = incidents_identical(
            failover["incidents"], incident_dir, replay_dir)
    return results


def report(results: dict, duration: float):
    failover = results["failover"]
    reliable = results["reliable"]
    header(f"C3e — Failover and ARQ recovery under injected faults "
           f"({duration:.0f} s horizon)")
    emit("regional-server crash (tokyo -> seoul standby):")
    emit(f"  crash at {failover['crash_at']:.2f} s, failover at "
         f"{failover['failover_at']:.3f} s" if failover["failover_at"]
         else "  crash with NO failover (detector never fired)")
    blackout = failover["blackout_s"]
    emit(f"  client blackout     {blackout * 1e3:7.1f} ms "
         f"(detection {DETECTION_TIMEOUT * 1e3:.0f} ms + handover)"
         if blackout is not None else "  client blackout     INFINITE")
    emit(f"  keyframe re-attach  {failover['keyframe_reattach']}")
    emit(f"  snapshots received  {failover['snapshots']}")
    emit(f"  SLO snapshot_age: {failover['slo_breaches']} breach(es), "
         f"final state {failover['slo_final']}"
         + (f", incident(s) {', '.join(failover['incidents'])}"
            if failover["incidents"] else ""))
    for line in failover["slo_transitions"].splitlines():
        t, slo, change = line.split(" ")
        emit(f"    t={float(t):6.2f} s  {slo} {change}")
    emit("reliable transfer across a WAN link outage "
         f"({reliable['outage'][0]:.2f}-{reliable['outage'][1]:.2f} s):")
    emit(f"  chunks delivered    {reliable['delivered']}/{reliable['chunks']} "
         f"(failed {reliable['failed']}, skipped {reliable['skipped']}, "
         f"in order: {reliable['in_order']})")
    recovery = reliable["recovery_s"]
    emit(f"  recovery after up   {recovery * 1e3:7.1f} ms"
         if recovery is not None else "  recovery after up   NEVER (deadlock)")
    emit(f"  max delivery gap    {reliable['max_gap_s'] * 1e3:7.1f} ms")
    emit(f"  retransmissions     {reliable['retransmissions']} "
         f"(outage dropped {reliable['dropped_down']} packets on the wire)")
    emit(f"seeded replay byte-identical: {results['replay_identical']}")


def test_c3e_failover(benchmark):
    results = benchmark.pedantic(run_c3e, rounds=1, iterations=1)
    report(results, DURATION)

    failover = results["failover"]
    # The failure detector re-attached the client: finite blackout, opened
    # by a keyframe, bounded by detection timeout + handover slack.
    assert failover["blackout_s"] is not None
    assert DETECTION_TIMEOUT < failover["blackout_s"] < 1.5
    assert failover["keyframe_reattach"] is True
    assert failover["failovers"] == 1
    # Breach -> recovery, judged live by the SLO engine.
    assert failover["slo_breaches"] >= 1
    assert "->breach" in failover["slo_transitions"]
    assert failover["slo_final"] == "healthy"

    reliable = results["reliable"]
    # No head-of-line deadlock: the transfer finishes after the outage.
    assert reliable["delivered"] == reliable["chunks"]
    assert reliable["failed"] == 0
    assert reliable["in_order"] is True
    assert reliable["recovery_s"] is not None
    assert reliable["retransmissions"] > 0
    assert reliable["dropped_down"] > 0

    # Determinism: the whole fault history replays byte-for-byte.
    assert results["replay_identical"] is True


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: shorter horizon and transfer",
    )
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--trace", action="store_true",
                        help="record wall-clock spans per fault scenario and "
                             "dump SLO-breach incidents to the results dir")
    args = parser.parse_args(argv)
    from benchmarks._emit import (
        RESULTS_DIR,
        export_trace,
        phase_breakdown_ms,
        wall_tracer,
        write_bench_json,
    )
    duration = QUICK_DURATION if args.quick else DURATION
    chunks = QUICK_CHUNKS if args.quick else CHUNKS
    tracer = wall_tracer() if args.trace else None
    incident_dir = RESULTS_DIR if args.trace else None
    results = run_c3e(duration, chunks, args.seed, tracer=tracer,
                      incident_dir=incident_dir)
    report(results, duration)
    params = {"duration_s": duration, "chunks": chunks, "seed": args.seed,
              "recovery_ms": results["reliable"]["recovery_s"] * 1e3,
              "retransmissions": results["reliable"]["retransmissions"],
              "replay_identical": str(results["replay_identical"]),
              "slo_breaches": results["failover"]["slo_breaches"]}
    if args.trace:
        params["incidents"] = ",".join(results["failover"]["incidents"])
        params["incident_identical"] = str(results["incident_identical"])
        emit(f"incident dumps byte-identical across replay: "
             f"{results['incident_identical']}")
    stages = phase_breakdown_ms(tracer) if tracer is not None else None
    path = write_bench_json(
        "c3e", "failover_blackout_ms",
        results["failover"]["blackout_s"] * 1e3, "ms",
        params=params, stages=stages)
    if tracer is not None:
        export_trace(tracer.spans(), "c3e")
    emit(f"wrote {path}")
    return results


if __name__ == "__main__":
    main()
