"""Experiment C3a (Section 3.3): synchronizing many entities.

"Developing such a classroom raises significant challenges related to the
synchronization of a large number of entities within a single digital
space."  Sweeps the class size and measures tick compute, achieved tick
rate, and per-client downstream bandwidth — with interest management on
(spatial-grid area-of-interest + nearest-k) vs off (broadcast).

Expected shape: broadcast bandwidth grows linearly with N per client
(quadratic in total) while interest-managed bandwidth flattens at the
nearest-k cap; the server's tick saturates without filtering first.

A second sweep wall-clocks the data plane itself (SoA world, batch
interest query, batched delta encode) across N ∈ {100, 1k, 5k, 10k, 20k}.
That one measures *real* milliseconds per tick (``time.perf_counter``
around ``SyncServer.tick_once``), not the modeled sim-clock cost, and is
what the committed perf budget (``benchmarks/perf_budget.py``) tracks in
CI.

Standalone usage (the grid-vs-naive *correctness* check lives in
``tests/sync/test_interest_grid.py`` and runs in tier-1; this file is the
performance sweep)::

    PYTHONPATH=src python benchmarks/bench_c3_scale_sync.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_c3_scale_sync.py --quick  # smoke mode
"""

import statistics
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # direct `python benchmarks/bench_*.py` run
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import numpy as np

from benchmarks.conftest import emit, header
from repro.avatar.state import AvatarState
from repro.obs.profiler import TickProfiler, guard_overhead_pct
from repro.sensing.pose import Pose
from repro.simkit import Simulator
from repro.sync.interest import BroadcastInterest, InterestConfig, InterestManager
from repro.sync.protocol import ClientUpdate
from repro.sync.server import ServerCostModel, SyncServer
from repro.workload.traces import SeatedMotion

SIZES = (10, 50, 150, 400)
DURATION = 2.0
# Smoke-mode sweep: small enough to finish in seconds, big enough to
# exercise both interest modes end to end.
QUICK_SIZES = (10, 50)
QUICK_DURATION = 0.5

# -- wall-clock N-sweep of the data plane ------------------------------------

SCALE_SIZES = (100, 1000, 5000, 10000, 20000)
SCALE_TICKS = 4
#: Fraction of entities moving per tick.  Avatars stream pose updates
#: continuously (the C3a driver publishes every entity every tick), so
#: the representative steady state is full churn.
SCALE_CHURN = 1.0
QUICK_SCALE_SIZES = (1000, 10000)
QUICK_SCALE_TICKS = 3
#: Acceptance: at N=10000 the shard must hold (modeled) 20 Hz.
MIN_MODEL_TICK_RATE_10K = 19.0
#: Acceptance: the profiler's disabled path (a ``prof.enabled`` guard at
#: each phase boundary) must cost under this share of a measured tick.
MAX_NOOP_OVERHEAD_PCT = 3.0


def run_one(n: int, managed: bool, duration: float = DURATION,
            trace: bool = False):
    sim = Simulator(seed=3, obs=trace)
    interest = (
        InterestManager(InterestConfig(radius_m=8.0, max_entities=30))
        if managed else BroadcastInterest()
    )
    server = SyncServer(sim, tick_rate_hz=20.0, interest=interest)
    traces = [
        SeatedMotion((i % 25 * 1.2, i // 25 * 1.5, 1.2), sim.rng.stream(f"t{i}"))
        for i in range(n)
    ]
    for i in range(n):
        server.subscribe(f"u{i}", lambda snapshot: None)

    def driver():
        seqs = [0] * n
        while True:
            for i, trace in enumerate(traces):
                state = AvatarState(f"u{i}", sim.now, trace(sim.now), seq=seqs[i])
                server.ingest(ClientUpdate(f"u{i}", state, seqs[i]))
                seqs[i] += 1
            yield sim.timeout(0.05)

    sim.process(driver())
    server.run(duration=duration)
    sim.run(until=duration)
    tick_cost = server.metrics.tracker("tick_cost").summary()
    row = {
        "tick_rate": server.achieved_tick_rate(duration),
        "tick_cost_ms": tick_cost.mean * 1e3,
        "egress_kbps": server.egress_bytes_per_client_s(duration) * 8 / 1e3,
        "pairs_scanned": server.metrics.counter("interest_pairs_scanned"),
    }
    if trace:
        from repro.obs.span import stage_durations
        row["stages_ms"] = {
            stage: seconds * 1e3
            for stage, seconds in stage_durations(sim.obs.spans()).items()
        }
    return row


def run_c3a(sizes=SIZES, duration=DURATION, trace=False):
    return {
        (n, managed): run_one(n, managed, duration, trace)
        for n in sizes
        for managed in (False, True)
    }


def report(results, duration):
    header("C3a — Sync scaling: broadcast vs grid interest management")
    emit(f"{'N':>5} {'mode':<10} {'tick Hz':>8} {'tick ms':>8} "
         f"{'per-client kbps':>16} {'pairs/tick':>11}")
    for (n, managed), row in results.items():
        mode = "interest" if managed else "broadcast"
        pairs = row["pairs_scanned"]
        pairs_col = f"{pairs / max(1.0, row['tick_rate'] * duration):>11.0f}" \
            if pairs else f"{'n/a':>11}"
        emit(f"{n:>5} {mode:<10} {row['tick_rate']:>8.1f} "
             f"{row['tick_cost_ms']:>8.2f} {row['egress_kbps']:>16.1f} "
             f"{pairs_col}")


def run_scale_one(n: int, ticks: int = SCALE_TICKS,
                  churn: float = SCALE_CHURN, seed: int = 3,
                  profiler=None):
    """Wall-clock one server's tick at N entities (all subscribed).

    The world is seeded and keyframed in an untimed warm-up tick; each
    measured tick then moves a ``churn`` fraction of entities (1.0 by
    default — avatars stream pose continuously) and times only
    ``tick_once``: update apply + interest + delta encode + snapshot
    build, free of driver overhead.
    """
    sim = Simulator(seed=seed)
    interest = InterestManager(InterestConfig(radius_m=8.0, max_entities=30))
    server = SyncServer(sim, tick_rate_hz=20.0, interest=interest,
                        cost_model=ServerCostModel.vectorized(),
                        profiler=profiler)
    for i in range(n):
        server.subscribe(f"u{i}", lambda snapshot: None)

    def publish(i, seq):
        pose = Pose(position=np.array(
            [i % 100 * 1.2 + 0.01 * seq, i // 100 * 1.5, 1.2]))
        server.ingest(ClientUpdate(
            f"u{i}", AvatarState(f"u{i}", sim.now, pose, seq=seq), seq))

    for i in range(n):
        publish(i, 0)
    server.tick_once()             # warm-up: apply the world, keyframe everyone
    rng = np.random.default_rng(seed)
    wall_s, model_s = [], []
    for seq in range(1, ticks + 1):
        for i in rng.choice(n, size=max(1, int(n * churn)), replace=False):
            publish(int(i), seq)
        # Measuring real per-tick wall clock is this bench's headline
        # metric; the wall never feeds simulated state or fingerprints.
        begin = time.perf_counter()  # replint: ignore[DET001]
        model_s.append(server.tick_once())
        wall_s.append(time.perf_counter() - begin)  # replint: ignore[DET001]
    model_mean = statistics.fmean(model_s)
    return {
        "wall_ms_per_tick": statistics.median(wall_s) * 1e3,
        "tick_cost_model_ms": model_mean * 1e3,
        "tick_rate_model": 1.0 / max(server.tick_period, model_mean),
    }


def run_scale(sizes=SCALE_SIZES, ticks=SCALE_TICKS):
    return {n: run_scale_one(n, ticks) for n in sizes}


def report_scale(results):
    header("C3a — Data-plane N-sweep: wall clock per tick")
    emit(f"{'N':>6} {'wall ms/tick':>13} {'model ms':>9} {'model Hz':>9}")
    for n, row in sorted(results.items()):
        emit(f"{n:>6} {row['wall_ms_per_tick']:>13.2f} "
             f"{row['tick_cost_model_ms']:>9.2f} "
             f"{row['tick_rate_model']:>9.1f}")


def run_profile(n: int, ticks: int = SCALE_TICKS, seed: int = 3,
                baseline=None):
    """Phase-profile the tick at N and price the off switch.

    One instrumented repeat of the sweep's biggest config
    yields the per-phase self-time table (apply / interest / delta /
    serialize); ``guard_overhead_pct`` then times the *disabled* path —
    the ``prof.enabled`` guards the hot loop always executes — against
    the unprofiled baseline tick, which is the honest cost of shipping
    the instrumentation turned off.
    """
    if baseline is None:
        baseline = run_scale_one(n, ticks, seed=seed)
    profiler = TickProfiler()
    profiled = run_scale_one(n, ticks, seed=seed, profiler=profiler)
    return {
        "profiler": profiler,
        "baseline_wall_ms": baseline["wall_ms_per_tick"],
        "profiled_wall_ms": profiled["wall_ms_per_tick"],
        "noop_guard_overhead_pct": guard_overhead_pct(
            baseline["wall_ms_per_tick"] / 1e3),
    }


def report_profile(profile, n):
    header(f"C3a — Tick-phase self-time profile (N={n})")
    for line in profile["profiler"].table().splitlines():
        emit(f"  {line}")
    emit(f"  profiled tick {profile['profiled_wall_ms']:.2f} ms vs "
         f"unprofiled {profile['baseline_wall_ms']:.2f} ms")
    emit(f"  disabled-path guard overhead: "
         f"{profile['noop_guard_overhead_pct']:.4f}% of a tick "
         f"(budget {MAX_NOOP_OVERHEAD_PCT:.0f}%)")


def check_profile(profile):
    """Profiler acceptance gates (raises on violation)."""
    if not profile["profiler"].hot_phases():
        raise SystemExit("profiled run recorded no tick phases")
    pct = profile["noop_guard_overhead_pct"]
    if pct >= MAX_NOOP_OVERHEAD_PCT:
        raise SystemExit(
            f"profiler disabled-path guards cost {pct:.3f}% of a tick "
            f"(budget {MAX_NOOP_OVERHEAD_PCT}%)")


def check_scale(results):
    """The sweep's acceptance gate (raises on violation)."""
    if 10_000 in results:
        rate = results[10_000]["tick_rate_model"]
        if rate < MIN_MODEL_TICK_RATE_10K:
            raise SystemExit(
                f"N=10000 shard holds only {rate:.1f} Hz "
                f"(need >= {MIN_MODEL_TICK_RATE_10K})")


def test_c3a_scale_sync(benchmark):
    results = benchmark.pedantic(run_c3a, rounds=1, iterations=1)
    report(results, DURATION)

    # Broadcast per-client bandwidth keeps growing with N...
    broadcast = [results[(n, False)]["egress_kbps"] for n in SIZES]
    assert broadcast[-1] > 4 * broadcast[0]
    # ...while interest-managed bandwidth flattens at the cap.
    managed = [results[(n, True)]["egress_kbps"] for n in SIZES]
    assert managed[-1] < 0.35 * broadcast[-1]
    # Tick cost grows with N in both modes.
    assert (results[(SIZES[-1], True)]["tick_cost_ms"]
            > results[(SIZES[0], True)]["tick_cost_ms"])
    # The grid examines far fewer candidate pairs than the dense scan.
    biggest = results[(SIZES[-1], True)]
    total_ticks = biggest["tick_rate"] * DURATION
    assert 0 < biggest["pairs_scanned"] < SIZES[-1] ** 2 * total_ticks


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: small sizes, short duration (CI-friendly)",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="participant counts to sweep (overrides the default sweep)",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="simulated seconds per configuration",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="span-trace server ticks (sim-clock) and report stage totals",
    )
    parser.add_argument(
        "--scale-sizes", type=int, nargs="+", default=None,
        help="entity counts for the wall-clock N-sweep "
             "(overrides the default sweep)",
    )
    args = parser.parse_args(argv)
    from benchmarks._emit import write_bench_json

    sizes = tuple(args.sizes) if args.sizes else (
        QUICK_SIZES if args.quick else SIZES
    )
    duration = args.duration if args.duration is not None else (
        QUICK_DURATION if args.quick else DURATION
    )
    results = run_c3a(sizes, duration, trace=args.trace)
    report(results, duration)
    scale_sizes = tuple(args.scale_sizes) if args.scale_sizes else (
        QUICK_SCALE_SIZES if args.quick else SCALE_SIZES
    )
    scale_ticks = QUICK_SCALE_TICKS if args.quick else SCALE_TICKS
    scale = run_scale(scale_sizes, scale_ticks)
    report_scale(scale)
    profile_n = scale_sizes[-1]
    profile = run_profile(profile_n, scale_ticks, baseline=scale[profile_n])
    report_profile(profile, profile_n)
    biggest = results[(sizes[-1], True)]
    # Keys keep the ``vec_`` prefix the committed perf-budget baseline uses.
    scale_params = {
        f"vec_{n}": {
            "wall_ms_per_tick": row["wall_ms_per_tick"],
            "tick_rate_model": row["tick_rate_model"],
        }
        for n, row in scale.items()
    }
    path = write_bench_json(
        "c3a", "egress_kbps_interest", biggest["egress_kbps"], "kbps",
        params={
            "n": sizes[-1], "duration_s": duration,
            "egress_kbps_broadcast": results[(sizes[-1], False)]["egress_kbps"],
            "tick_cost_ms": biggest["tick_cost_ms"],
            "quick": bool(args.quick),
            "scale_ticks": scale_ticks,
            "scale": scale_params,
            "profile": {
                "n": profile_n,
                "noop_guard_overhead_pct": round(
                    profile["noop_guard_overhead_pct"], 4),
                "hot_phases": {
                    name: round(row["total_s"] * 1e3, 3)
                    for name, row in profile["profiler"].hot_phases(4)
                },
            },
        },
        stages=biggest.get("stages_ms"))
    emit(f"wrote {path}")
    check_scale(scale)
    check_profile(profile)
    return results


if __name__ == "__main__":
    main()
