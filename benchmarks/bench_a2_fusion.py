"""Ablation A2 (Section 3.2): sensor fusion on the edge server.

Figure 3: the edge "aggregates the data to estimate the pose".  Compares
pose-tracking error using the headset stream only, the room sensor rig
only, and the Kalman fusion of both — under occlusion and headset drift,
the conditions that motivate having two sources at all.
"""

import sys
from pathlib import Path

if __package__ in (None, ""):  # direct `python benchmarks/bench_*.py` run
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


import numpy as np

from benchmarks.conftest import emit, header
from repro.sensing.fusion import PoseFusionFilter
from repro.sensing.headset import HeadsetTracker
from repro.sensing.sensor import RoomSensorArray
from repro.simkit import Simulator
from repro.workload.traces import WalkingMotion

DURATION = 20.0
SEEDS = (21, 22, 23)


def run_variant(use_headset: bool, use_room: bool, seed: int) -> float:
    sim = Simulator(seed=seed)
    truth = WalkingMotion(
        [(1, 1, 1.2), (8, 1, 1.2), (8, 6, 1.2), (1, 6, 1.2)], speed_m_per_s=1.0
    )
    # The headset's measurement covariance must include its drift (a real
    # fuser inflates R for biased sources); the rig is noisy but unbiased.
    fused = PoseFusionFilter(headset_noise_m=0.04, room_noise_m=0.06)
    errors = []

    def probe():
        if fused.updates > 5:
            errors.append(fused.estimate().distance_to(truth(sim.now)))
        return 0.1

    if use_headset:
        # A drifty headset: realistic inside-out tracking over 20 s.
        tracker = HeadsetTracker(
            sim, "p", truth, rate_hz=60.0,
            drift_rate_m_per_sqrt_s=0.015, on_sample=fused.update,
        )
        tracker.run(duration=DURATION)
    if use_room:
        # A heavily occluded rig: crowded classrooms block most views.
        array = RoomSensorArray(
            sim, "rig", occlusion=0.6, base_noise_m=0.08,
            on_sample=fused.update,
        )
        array.run("p", truth, duration=DURATION)
    sim.call_later(0.1, lambda: sim.every(float("inf"), probe))
    sim.run(until=DURATION)
    return float(np.sqrt(np.mean(np.square(errors))))


def run_a2():
    return {
        variant: float(np.mean([
            run_variant(use_headset, use_room, seed) for seed in SEEDS
        ]))
        for variant, (use_headset, use_room) in {
            "headset_only": (True, False),
            "room_only": (False, True),
            "fused": (True, True),
        }.items()
    }


def test_a2_fusion(benchmark):
    results = benchmark.pedantic(run_a2, rounds=1, iterations=1)

    header("A2 — Pose estimation: headset vs room rig vs Kalman fusion")
    emit(f"{'variant':<14} {'RMSE':>10}")
    for variant, rmse in results.items():
        emit(f"{variant:<14} {rmse * 100:>8.1f} cm")

    # Fusion beats both single-source variants: the room rig pins down the
    # headset's drift, the headset fills the rig's occlusion gaps.
    assert results["fused"] < results["headset_only"]
    assert results["fused"] < results["room_only"]


def main(argv=None):
    import argparse

    from benchmarks._emit import write_bench_json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode (this bench is already quick)")
    args = parser.parse_args(argv)
    results = run_a2()
    path = write_bench_json(
        "a2", "fused_rmse_m", results["fused"], "m",
        params={variant: error for variant, error in results.items()})
    print(f"fused RMSE {results['fused']:.4f} m; wrote {path}")
    return results


if __name__ == "__main__":
    main()
