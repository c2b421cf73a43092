"""Ablation A3: how receivers bridge the network gap.

Compares three receiver policies for displaying a remote avatar whose
updates arrive at 20 Hz with jittery latency and loss:

* ``latest`` — render the newest snapshot as-is (naive);
* ``interpolation`` — render 100 ms in the past, blending snapshots;
* ``dead_reckoning`` — extrapolate the newest snapshot to *now*.

Expected shape: raw-latest shows the full network latency as position
error; interpolation is smooth and accurate but adds its delay; dead
reckoning trades accuracy for zero added delay (good between updates,
spikes on direction changes).
"""

import itertools
import sys
from pathlib import Path

if __package__ in (None, ""):  # direct `python benchmarks/bench_*.py` run
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


import numpy as np

from benchmarks.conftest import emit, header
from repro.avatar.interpolation import SnapshotBuffer
from repro.avatar.prediction import DeadReckoner
from repro.avatar.state import AvatarState
from repro.simkit import Simulator
from repro.workload.traces import WalkingMotion

UPDATE_HZ = 20.0
DURATION = 30.0
LATENCY = 0.08
JITTER = 0.02
LOSS = 0.05


def run_a3():
    sim = Simulator(seed=31)
    truth = WalkingMotion(
        [(0, 0, 1.2), (6, 0, 1.2), (6, 4, 1.2), (0, 4, 1.2)], speed_m_per_s=1.4
    )
    rng = sim.rng.stream("net")
    buffer = SnapshotBuffer(interpolation_delay=0.1)
    reckoner = DeadReckoner()
    latest_state = {"state": None}

    seqs = itertools.count()

    def sender():
        state = AvatarState("p", sim.now, truth(sim.now), seq=next(seqs))
        if rng.random() >= LOSS:
            delay = LATENCY + float(rng.exponential(JITTER))

            def deliver(state=state):
                buffer.push(state)
                reckoner.observe(state.time, state.pose)
                if (latest_state["state"] is None
                        or state.time > latest_state["state"].time):
                    latest_state["state"] = state

            sim.call_later(delay, deliver)
        return 1.0 / UPDATE_HZ

    errors = {"latest": [], "interpolation": [], "dead_reckoning": []}

    def prober():
        true_pose = truth(sim.now)
        if latest_state["state"] is not None:
            errors["latest"].append(
                latest_state["state"].pose.distance_to(true_pose)
            )
        sample = buffer.sample(sim.now)
        if sample is not None:
            errors["interpolation"].append(sample.pose.distance_to(true_pose))
        if reckoner.ready:
            errors["dead_reckoning"].append(
                reckoner.predict(sim.now).distance_to(true_pose)
            )
        return 0.05

    sim.every(float("inf"), sender)
    sim.call_later(0.05, lambda: sim.every(float("inf"), prober))
    sim.run(until=DURATION)
    return {
        policy: (float(np.mean(vals)), float(np.percentile(vals, 95)))
        for policy, vals in errors.items()
    }


def test_a3_interpolation(benchmark):
    results = benchmark.pedantic(run_a3, rounds=1, iterations=1)

    header("A3 — Receiver policies for remote avatars (walking at 1.4 m/s)")
    emit(f"{'policy':<16} {'mean err':>10} {'p95 err':>10}")
    for policy, (mean, p95) in results.items():
        emit(f"{policy:<16} {mean * 100:>8.1f}cm {p95 * 100:>8.1f}cm")

    latest_mean = results["latest"][0]
    interp_mean = results["interpolation"][0]
    reckon_mean = results["dead_reckoning"][0]
    # Raw-latest carries the full network latency as error
    # (1.4 m/s * ~100 ms  =>  ~14 cm floor).
    assert latest_mean > 0.10
    # Dead reckoning removes most of that latency error.
    assert reckon_mean < 0.7 * latest_mean
    # Interpolation's render-time delay is visible as divergence from
    # "now" but the motion is smooth; it should beat raw-latest too
    # because its render-time target is bracketed, not stale.
    assert interp_mean < latest_mean * 1.5


def main(argv=None):
    import argparse

    from benchmarks._emit import write_bench_json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode (this bench is already quick)")
    args = parser.parse_args(argv)
    results = run_a3()
    path = write_bench_json(
        "a3", "interpolation_mean_error_m", results["interpolation"][0], "m",
        params={policy: {"mean_m": mean, "p95_m": p95}
                for policy, (mean, p95) in results.items()})
    print(f"interpolation mean error "
          f"{results['interpolation'][0]:.4f} m; wrote {path}")
    return results


if __name__ == "__main__":
    main()
