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
CI.  A third run splits the largest sweep point's tick into phases with
wall-clock spans wrapped around the server's entry points from outside.

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

from benchmarks._emit import phase_breakdown_ms, wall_phase, wall_tracer
from benchmarks.conftest import emit, header
from repro.avatar.state import AvatarState
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
#: Tick phases timed by wrapping the server's own objects: each name maps
#: to the (attribute of ``SyncServer``, method) whose calls it spans.  The
#: rest of the tick (compact, subject setup, snapshot build and fan-out)
#: is reported as ``tick_other``.
TICK_PHASES = {
    "apply": ("world", "apply_many"),
    "interest": ("interest", "relevant_indices_batch"),
    "delta": ("encoder", "encode_batch"),
}


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

    seqs = [0] * n

    def driver():
        for i, trace in enumerate(traces):
            state = AvatarState(f"u{i}", sim.now, trace(sim.now), seq=seqs[i])
            server.ingest(ClientUpdate(f"u{i}", state, seqs[i]))
            seqs[i] += 1
        return 0.05

    sim.every(float("inf"), driver)
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


def _span_calls(tracer, name, method):
    def spanned(*args, **kwargs):
        with wall_phase(tracer, name):
            return method(*args, **kwargs)
    return spanned


def run_scale_one(n: int, ticks: int = SCALE_TICKS,
                  churn: float = SCALE_CHURN, seed: int = 3,
                  tracer=None):
    """Wall-clock one server's tick at N entities (all subscribed).

    The world is seeded and keyframed in an untimed warm-up tick; each
    measured tick then moves a ``churn`` fraction of entities (1.0 by
    default — avatars stream pose continuously) and times only
    ``tick_once``: update apply + interest + delta encode + snapshot
    build, free of driver overhead.

    With a wall-clock ``tracer`` (``benchmarks._emit.wall_tracer``), this
    server's ``tick_once`` and :data:`TICK_PHASES` methods are wrapped,
    on these instances only, in spans named ``tick`` and after the phase.
    The wrappers pass every argument and result through, so the tick's
    outputs are unchanged.
    """
    sim = Simulator(seed=seed)
    interest = InterestManager(InterestConfig(radius_m=8.0, max_entities=30))
    server = SyncServer(sim, tick_rate_hz=20.0, interest=interest,
                        cost_model=ServerCostModel.vectorized())
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
    if tracer is not None:
        server.tick_once = _span_calls(tracer, "tick", server.tick_once)
        for name, (attr, method) in TICK_PHASES.items():
            owner = getattr(server, attr)
            setattr(owner, method,
                    _span_calls(tracer, name, getattr(owner, method)))
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


def run_profile(n: int, ticks: int = SCALE_TICKS, seed: int = 3):
    """Split the tick at N into wall-clock phases, from outside.

    One traced repeat of the sweep's biggest config: :data:`TICK_PHASES`
    totals come from their spans, and ``tick_other`` is the ``tick``
    spans' total minus those, so the phases partition the measured tick.
    Returns ``{"tick_ms", "phases"}`` with phases in ms, hottest first.
    """
    tracer = wall_tracer()
    run_scale_one(n, ticks, seed=seed, tracer=tracer)
    totals = phase_breakdown_ms(tracer)
    phases = {name: totals.get(name, 0.0) for name in TICK_PHASES}
    phases["tick_other"] = totals["tick"] - sum(phases.values())
    return {
        "tick_ms": totals["tick"],
        "phases": dict(sorted(phases.items(), key=lambda kv: -kv[1])),
    }


def report_profile(profile, n):
    header(f"C3a — Tick-phase wall-clock profile (N={n})")
    emit(f"  {'phase':<12} {'self ms':>9} {'share':>6}")
    for name, ms in profile["phases"].items():
        emit(f"  {name:<12} {ms:>9.2f} {ms / profile['tick_ms']:>6.1%}")
    emit(f"  {'tick':<12} {profile['tick_ms']:>9.2f}")


def check_profile(profile):
    """Profile acceptance gate: the phases partition a measured tick
    (raises on violation)."""
    phases = profile["phases"]
    if profile["tick_ms"] <= 0 or min(phases.values()) < 0:
        raise SystemExit(
            f"tick phases {phases} do not partition the measured "
            f"{profile['tick_ms']:.3f} ms tick")


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
    profile = run_profile(profile_n, scale_ticks)
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
                "hot_phases": {
                    name: round(ms, 3)
                    for name, ms in profile["phases"].items()
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
