"""Experiment C3c (Section 3.3): on-device vs cloud vs collaborative rendering.

"These avatars may be too complex to render with WebGL and lightweight VR
headsets ... One solution would be to render a low-quality version of the
models on-device and merge the rendered frame with high-quality frames
rendered in the cloud."  Compares delivered frame quality across the three
modes as the cloud RTT grows, plus each device class's triangle ceiling.
"""

import sys
from pathlib import Path

if __package__ in (None, ""):  # direct `python benchmarks/bench_*.py` run
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


from benchmarks.conftest import emit, header
from repro.render.budget import FrameBudget
from repro.render.display import DisplayModel
from repro.render.pipeline import DEVICE_PROFILES, RenderPipeline
from repro.render.remote import CollaborativeRenderer, RemoteRenderConfig
from repro.simkit import Simulator
from repro.workload.traces import SeatedMotion

RTTS = (0.02, 0.05, 0.08, 0.12, 0.20)


def run_c3c():
    sim = Simulator(seed=9)
    trace = SeatedMotion((0, 0, 1.2), sim.rng.stream("head"), head_scan_rad=0.8)
    table = {}
    for rtt in RTTS:
        config = RemoteRenderConfig(rtt=rtt)
        row = {}
        for mode in ("local", "cloud", "collaborative"):
            renderer = CollaborativeRenderer(trace, config, predictor_gain=0.5)
            row[mode] = renderer.mean_quality(0.0, 20.0, fps=36.0, mode=mode)
        table[rtt] = row
    return table


def test_c3c_remote_render(benchmark):
    table = benchmark.pedantic(run_c3c, rounds=1, iterations=1)

    header("C3c — Rendering modes: delivered quality vs cloud RTT")
    emit(f"{'RTT ms':>8} {'local':>8} {'cloud':>8} {'collaborative':>14}")
    for rtt, row in table.items():
        emit(f"{rtt * 1e3:>8.0f} {row['local']:>8.3f} {row['cloud']:>8.3f} "
             f"{row['collaborative']:>14.3f}")

    for rtt, row in table.items():
        # Collaborative never loses to either extreme.
        assert row["collaborative"] >= row["local"] - 1e-9
        assert row["collaborative"] >= row["cloud"] - 1e-9
    # Cloud-only degrades with RTT (speculation misses grow)...
    cloud = [table[rtt]["cloud"] for rtt in RTTS]
    assert cloud[0] > cloud[-1]
    # ...and at high RTT falls below even the local fallback.
    assert table[RTTS[-1]]["cloud"] < table[RTTS[-1]]["local"]

    emit()
    emit("Device triangle ceilings at 72 Hz (why offload exists):")
    display = DisplayModel(refresh_hz=72.0)
    ceilings = {}
    for name in ("webgl_phone", "standalone_hmd", "pc_vr"):
        pipeline = RenderPipeline(DEVICE_PROFILES[name], display)
        ceilings[name] = pipeline.max_triangles_at_refresh()
        budget = FrameBudget(DEVICE_PROFILES[name], display)
        avatars = [(f"s{i}", 2.0 + i, 0.5) for i in range(20)]
        report = budget.plan_report(avatars)
        emit(f"  {name:<16} {ceilings[name] / 1e6:6.2f} M tris; 20-avatar "
             f"class renders at quality {report.quality:5.1f} "
             f"({'fits' if report.fits else 'OVER BUDGET'})")
    assert ceilings["webgl_phone"] < ceilings["standalone_hmd"] < ceilings["pc_vr"]
    # A 20-avatar photoreal classroom (~3M tris) exceeds the phone ceiling.
    assert ceilings["webgl_phone"] < 20 * 150_000


def main(argv=None):
    import argparse

    from benchmarks._emit import (
        phase_breakdown_ms,
        wall_phase,
        wall_tracer,
        write_bench_json,
    )

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode (this bench is already quick)")
    parser.add_argument("--trace", action="store_true",
                        help="record wall-clock spans per RTT point")
    args = parser.parse_args(argv)
    tracer = wall_tracer() if args.trace else None
    sim = Simulator(seed=9)
    trace = SeatedMotion((0, 0, 1.2), sim.rng.stream("head"), head_scan_rad=0.8)
    table = {}
    for rtt in RTTS:
        config = RemoteRenderConfig(rtt=rtt)
        row = {}
        for mode in ("local", "cloud", "collaborative"):
            renderer = CollaborativeRenderer(trace, config, predictor_gain=0.5)
            with wall_phase(tracer, f"{mode}_rtt_{rtt * 1e3:.0f}ms"):
                row[mode] = renderer.mean_quality(0.0, 20.0, fps=36.0, mode=mode)
        table[rtt] = row
    worst = max(RTTS)
    stages = phase_breakdown_ms(tracer) if tracer is not None else None
    path = write_bench_json(
        "c3c", "collab_quality_at_200ms_rtt", table[worst]["collaborative"],
        "quality",
        params={f"{rtt * 1e3:.0f}ms": row for rtt, row in table.items()},
        stages=stages)
    print(f"collaborative quality at {worst * 1e3:.0f} ms RTT: "
          f"{table[worst]['collaborative']:.3f}; wrote {path}")
    return table


if __name__ == "__main__":
    main()
