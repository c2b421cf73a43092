"""Ablation A4: delta encoding vs full snapshots.

The sync tier's bandwidth policy: send the whole relevant world every tick
(robust, expensive) or only what changed since the subscriber's last view,
with periodic keyframes.  Measures per-client bandwidth on a classroom
where only a fraction of participants move each tick.
"""

import sys
from pathlib import Path

if __package__ in (None, ""):  # direct `python benchmarks/bench_*.py` run
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


import numpy as np

from benchmarks.conftest import emit, header
from repro.avatar.state import AvatarState
from repro.sensing.pose import Pose
from repro.sync.delta import BatchDeltaEncoder, WorldState
from repro.sync.protocol import ServerSnapshot

N_ENTITIES = 60
TICKS = 200
ACTIVE_FRACTION = 0.15  # seated classroom: most people barely move


def run_a4():
    rng = np.random.default_rng(41)
    results = {}
    for mode, keyframe_interval in (("full", 1), ("delta_kf30", 30),
                                    ("delta_kf120", 120)):
        world = WorldState()
        seqs = np.zeros(N_ENTITIES, dtype=int)
        for i in range(N_ENTITIES):
            world.apply(AvatarState(
                f"p{i}", 0.0, Pose(np.array([i * 1.0, 0.0, 1.2])), seq=0
            ))
        encoder = BatchDeltaEncoder(keyframe_interval=keyframe_interval)
        relevant = np.array(
            [world.slot_of(f"p{i}") for i in range(N_ENTITIES)],
            dtype=np.int64)
        offsets = np.array([0, N_ENTITIES], dtype=np.int64)
        total_bytes = 0
        for tick in range(TICKS):
            movers = rng.random(N_ENTITIES) < ACTIVE_FRACTION
            for i in np.flatnonzero(movers):
                seqs[i] += 1
                world.apply(AvatarState(
                    f"p{i}", float(tick), Pose(np.array([i * 1.0, 0.1 * tick, 1.2])),
                    seq=int(seqs[i]),
                ))
            send_mask, full_flags, removed = encoder.encode_batch(
                world, ["sub"], offsets, relevant)
            snapshot = ServerSnapshot(
                tick=tick, server_time=float(tick),
                states=world.states_at(relevant[send_mask].tolist()),
                removed=removed[0], full=bool(full_flags[0]))
            total_bytes += snapshot.size_bytes
        results[mode] = total_bytes / TICKS * 20 * 8 / 1e3  # kbps at 20 Hz
    return results


def test_a4_delta_encoding(benchmark):
    results = benchmark.pedantic(run_a4, rounds=1, iterations=1)

    header(f"A4 — Snapshot encoding ({N_ENTITIES} entities, "
           f"{ACTIVE_FRACTION:.0%} moving per tick, 20 Hz)")
    emit(f"{'mode':<14} {'per-client kbps':>16}")
    for mode, kbps in results.items():
        emit(f"{mode:<14} {kbps:>16.1f}")
    saving = 1 - results["delta_kf30"] / results["full"]
    emit(f"delta(kf=30) saves {saving:.1%} vs full snapshots")

    assert results["delta_kf120"] < results["delta_kf30"] < results["full"]
    # With 15% movers, deltas should cut well over half the bandwidth.
    assert results["delta_kf30"] < 0.5 * results["full"]


def main(argv=None):
    import argparse

    from benchmarks._emit import write_bench_json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode (this bench is already quick)")
    args = parser.parse_args(argv)
    results = run_a4()
    path = write_bench_json(
        "a4", "delta_kf30_kbps", results["delta_kf30"], "kbps",
        params=dict(results))
    print(f"delta (kf=30) {results['delta_kf30']:.1f} kbps vs full "
          f"{results['full']:.1f} kbps; wrote {path}")
    return results


if __name__ == "__main__":
    main()
