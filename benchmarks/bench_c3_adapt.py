"""Experiment C3h (Section 3.3): QoE-driven adaptive degradation loop.

The blueprint's remote classroom only keeps its 100 ms interaction
budget if the system *gives something up* when the network does: on
access links too slow for the full snapshot rate — with a Gilbert-
Elliott loss burst on two students' downlinks and a regional shard
crash layered on top — a fixed-fidelity deployment queues without bound
and tail latency diverges.  This bench runs the same seeded classroom
twice, with and without the :mod:`repro.adapt` controller closing the
scoreboard → ladder → knob loop, and reports what adaptation buys:

* motion-to-photon proxy (snapshot delivery latency + the device frame
  time of rendering the current rung's LOD plan) p95 per arm;
* QoE retention (mean task-performance score, adapted / baseline) and
  final cybersickness state from the same scoreboard both arms share;
* the degradation-decision log, byte-identical across a seeded replay.

Both arms see identical fault schedules; the only difference is the
controller.  Standalone usage::

    PYTHONPATH=src python benchmarks/bench_c3_adapt.py [--quick] [--trace]
"""

import sys
from pathlib import Path

if __package__ in (None, ""):  # direct `python benchmarks/bench_*.py` run
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.conftest import emit, header
from repro.adapt import AdaptConfig, AdaptationController, federation_knobs
from repro.cloud.regions import RegionalPlan
from repro.net.faults import (
    FaultInjector,
    GilbertElliottLoss,
    ServerCrashSchedule,
)
from repro.obs.scoreboard import QoeScoreboard
from repro.obs.signals import percentile
from repro.render.budget import FrameBudget
from repro.render.pipeline import DEVICE_PROFILES
from repro.simkit import Simulator
from repro.sync.federation import ShardedSyncService, ShardHandoffController
from repro.workload.traces import SeatedMotion

SEED = 42
DURATION = 24.0
QUICK_DURATION = 10.0
N_USERS = 6
#: Slow enough that 20 Hz snapshots oversubscribe every downlink; the
#: lean/survival decimated rates fit again.
ACCESS_BPS = 16_000.0
POLL_S = 0.25
WARMUP_S = 5.0
#: Downlinks of these students ride a two-state burst-loss channel.
LOSSY_USERS = ("u00", "u03")
CRASH_SITE = "s1"
DETECTION_TIMEOUT = 0.3

CFG = AdaptConfig(degrade_polls=2, restore_polls=4, hold_time_s=2.0)


def _frame_times_by_rung(ladder):
    """Device frame time of rendering each rung's peer-avatar LOD plan."""
    budget = FrameBudget(DEVICE_PROFILES["standalone_hmd"])
    peers = [(f"p{i}", 2.0 + 1.5 * i, 1.0 / (1 + i))
             for i in range(N_USERS - 1)]
    return [
        budget.plan_report(
            peers, level_cap=rung.lod_cap, foveation=rung.foveation
        ).frame_time
        for rung in ladder
    ]


def run_arm(seed: int, duration: float, adapt: bool) -> dict:
    """One seeded classroom under faults; ``adapt`` arms the controller."""
    sim = Simulator(seed=seed)
    sites = ["s0", "s1"]
    users = [f"u{i:02d}" for i in range(N_USERS)]
    plan = RegionalPlan(
        sites=sites,
        assignment={user: sites[i % 2] for i, user in enumerate(users)},
        rtts={user: 0.02 for user in users},
    )
    service = ShardedSyncService(sim, plan, access_rate_bps=ACCESS_BPS)
    scoreboard = QoeScoreboard(window_s=2.0)
    controller = AdaptationController(scoreboard, config=CFG) if adapt \
        else None
    frame_times = _frame_times_by_rung(
        controller.ladder if controller is not None
        else AdaptationController(scoreboard).ladder)

    mtp = {user: [] for user in users}
    for i, user in enumerate(users):
        federated = service.add_client(user)
        federated.client.local_pose = SeatedMotion(
            (i * 1.0, 0.0, 1.2), sim.rng.stream(f"t{user}"))
        federated.client.run(duration=duration)
        latencies = []
        scoreboard.add_client(
            user, (lambda s=latencies: s), susceptibility=1.0)
        original = federated.client.on_snapshot

        def on_snapshot(snapshot, user=user, latencies=latencies,
                        original=original):
            delivery = sim.now - snapshot.server_time
            latencies.append(delivery)
            rung = controller.rung(user) if controller is not None else 0
            mtp[user].append((sim.now, delivery + frame_times[rung]))
            original(snapshot)

        federated.client.on_snapshot = on_snapshot

    if controller is not None:
        for user in users:
            controller.add_client(
                user,
                knobs=federation_knobs(service, user),
                loss_probe=(
                    lambda u=user: service.downlink(u).stats.loss_fraction),
            )

    handoff = ShardHandoffController(
        sim, service,
        detection_timeout=DETECTION_TIMEOUT, check_period=0.05)
    handoff.run(duration)

    injector = FaultInjector(sim)
    for user in LOSSY_USERS:
        injector.burst_loss(
            service.downlink(user, site=plan.assignment[user]),
            GilbertElliottLoss(p_good_bad=0.02, p_bad_good=0.25))
    crash_at = round(duration * 0.45, 6)
    injector.server_crash(service.shards[CRASH_SITE],
                          ServerCrashSchedule([(crash_at, None)]))

    def control_tick():
        scoreboard.poll(sim.now, dt_s=POLL_S)
        if controller is not None:
            controller.poll(sim.now)
        return POLL_S

    sim.call_later(POLL_S, lambda: sim.every(duration - POLL_S, control_tick))
    service.start(duration)
    sim.run()

    tail = [value for series in mtp.values()
            for t, value in series if t >= WARMUP_S]
    blackouts = {user: round(value, 9)
                 for user, value in sorted(handoff.blackouts().items())
                 if value is not None}
    result = {
        "mtp_p95_ms": round(percentile(tail, 95.0) * 1e3, 6),
        "mtp_p50_ms": round(percentile(tail, 50.0) * 1e3, 6),
        "qoe_mean": round(
            sum(s.performance for s in scoreboard.clients.values())
            / N_USERS, 6),
        "qoe_min": round(
            min(s.performance for s in scoreboard.clients.values()), 6),
        "sickness_mean": round(
            sum(s.sickness for s in scoreboard.clients.values())
            / N_USERS, 6),
        "snapshots": sum(
            f.client.snapshots_received for f in service.clients.values()),
        "crash_at": crash_at,
        "failed_over": len(blackouts),
        "max_blackout_ms": round(max(blackouts.values()) * 1e3, 6)
        if blackouts else None,
        "fault_log": injector.fingerprint(),
        "scoreboard": scoreboard.fingerprint(),
    }
    if controller is not None:
        result["decisions"] = controller.fingerprint()
        result["n_decisions"] = len(controller.decisions)
        result["final_rungs"] = {
            user: controller.rung_name(user) for user in controller.clients}
        result["decision_lines"] = [
            decision.line() for decision in controller.decisions]
    return result


def run_c3h(duration: float = DURATION, seed: int = SEED,
            tracer=None) -> dict:
    from benchmarks._emit import wall_phase

    with wall_phase(tracer, "baseline"):
        baseline = run_arm(seed, duration, adapt=False)
    with wall_phase(tracer, "adapted"):
        adapted = run_arm(seed, duration, adapt=True)
    with wall_phase(tracer, "replay"):
        replay = run_arm(seed, duration, adapt=True)
    return {
        "baseline": baseline,
        "adapted": adapted,
        # Performance scores live in [0, 1]: each arm's mean is the
        # fraction of the ideal (uncongested) QoE it retains.
        "qoe_gain": round(
            adapted["qoe_mean"] - baseline["qoe_mean"], 6),
        "replay_identical": repr(adapted) == repr(replay),
        "decisions_identical": adapted["decisions"] == replay["decisions"],
    }


def report(results: dict, duration: float):
    baseline, adapted = results["baseline"], results["adapted"]
    header(f"C3h — QoE-driven adaptive degradation under faults "
           f"({duration:.0f} s horizon, {N_USERS} students, "
           f"{ACCESS_BPS / 1e3:.0f} kbit/s downlinks)")
    emit(f"faults: burst loss on {', '.join(LOSSY_USERS)}; shard "
         f"{CRASH_SITE} crashes at {baseline['crash_at']:.2f} s "
         f"({baseline['failed_over']} client(s) fail over)")
    emit()
    emit(f"{'':24s}{'baseline':>12s}{'adapted':>12s}")
    for label, key, scale in (
        ("MTP proxy p95 (ms)", "mtp_p95_ms", 1.0),
        ("MTP proxy p50 (ms)", "mtp_p50_ms", 1.0),
        ("QoE performance mean", "qoe_mean", 1.0),
        ("QoE performance min", "qoe_min", 1.0),
        ("sickness (SSQ-like)", "sickness_mean", 1.0),
        ("snapshots delivered", "snapshots", 1.0),
    ):
        emit(f"  {label:22s}{baseline[key] * scale:>12.3f}"
             f"{adapted[key] * scale:>12.3f}")
    emit()
    emit(f"QoE retained of ideal: adapted {adapted['qoe_mean']:.3f} vs "
         f"baseline {baseline['qoe_mean']:.3f} "
         f"(gain {results['qoe_gain']:+.3f})")
    emit(f"degradation decisions: {adapted['n_decisions']}, final rungs "
         + ", ".join(f"{u}={r}" for u, r in adapted["final_rungs"].items()))
    emit(f"seeded replay byte-identical: {results['replay_identical']} "
         f"(decision log: {results['decisions_identical']})")


def test_c3h_adapt(benchmark):
    results = benchmark.pedantic(
        run_c3h, kwargs={"duration": QUICK_DURATION}, rounds=1, iterations=1)
    report(results, QUICK_DURATION)
    baseline, adapted = results["baseline"], results["adapted"]
    # The un-adapted classroom diverges; the controller holds the tail.
    assert baseline["mtp_p95_ms"] > 500.0
    assert adapted["mtp_p95_ms"] < 0.5 * baseline["mtp_p95_ms"]
    assert adapted["mtp_p95_ms"] <= 100.0 or (
        adapted["qoe_mean"] > baseline["qoe_mean"]
        and adapted["sickness_mean"] < baseline["sickness_mean"])
    # Degrading buys experience, not just latency: the adapted arm keeps
    # a solid majority of the ideal QoE the baseline loses outright.
    assert results["qoe_gain"] > 0.3
    assert adapted["qoe_mean"] > 0.5
    assert adapted["sickness_mean"] < baseline["sickness_mean"]
    # The ladder actually moved, and every decision replays byte-for-byte.
    assert adapted["n_decisions"] > 0
    assert results["replay_identical"] is True
    assert results["decisions_identical"] is True


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: shorter horizon")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--trace", action="store_true",
                        help="record wall-clock phase spans and dump the "
                             "degradation decision log to the results dir")
    args = parser.parse_args(argv)
    from benchmarks._emit import (
        export_trace,
        phase_breakdown_ms,
        wall_tracer,
        write_artifact,
        write_bench_json,
    )
    duration = QUICK_DURATION if args.quick else DURATION
    tracer = wall_tracer() if args.trace else None
    results = run_c3h(duration, args.seed, tracer=tracer)
    report(results, duration)
    baseline, adapted = results["baseline"], results["adapted"]
    params = {
        "duration_s": duration, "seed": args.seed, "users": N_USERS,
        "access_bps": ACCESS_BPS,
        "baseline_mtp_p95_ms": baseline["mtp_p95_ms"],
        "qoe_gain": results["qoe_gain"],
        "baseline_qoe_mean": baseline["qoe_mean"],
        "adapted_qoe_mean": adapted["qoe_mean"],
        "baseline_sickness": baseline["sickness_mean"],
        "adapted_sickness": adapted["sickness_mean"],
        "n_decisions": adapted["n_decisions"],
        "replay_identical": str(results["replay_identical"]),
        "decisions_identical": str(results["decisions_identical"]),
    }
    stages = phase_breakdown_ms(tracer) if tracer is not None else None
    path = write_bench_json(
        "c3h", "adapted_mtp_p95_ms", adapted["mtp_p95_ms"], "ms",
        params=params, stages=stages)
    emit(f"wrote {path}")
    if args.trace:
        export_trace(tracer.spans(), "c3h")
        decisions_path = write_artifact(
            "DECISIONS_c3h.log",
            "\n".join(adapted["decision_lines"]) + "\n")
        emit(f"wrote {decisions_path}")
    return results


if __name__ == "__main__":
    main()
