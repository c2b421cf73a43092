"""Experiment C3d (Section 3.3): video quality vs latency under loss.

"Maximizing video quality while minimizing latency to an imperceptible
level has been a significant research challenge in the cloud gaming
community, and solutions leveraging joint source coding and forward error
correction at the application level are presenting promising results"
(Nebula).  Streams the same lecture video over a lossy path with three
recovery strategies.

Expected shape: plain streaming loses quality under loss; ARQ restores
the frames but stalls (round-trip recovery); FEC restores the frames at a
constant bandwidth premium with no added latency — the Nebula result.
"""

import sys
from pathlib import Path

if __package__ in (None, ""):  # direct `python benchmarks/bench_*.py` run
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


from benchmarks.conftest import emit, header
from repro.media.stream import VideoStreamSession
from repro.simkit import Simulator

LOSSES = (0.0, 0.01, 0.05, 0.10)
STRATEGIES = ("none", "arq", "fec")
SEEDS = (17, 18, 19)


def _mean_report(reports):
    """Average per-seed reports field-wise (single-run noise is real:
    one unlucky tail loss corrupts a whole GOP)."""
    import numpy as np

    from repro.media.stream import StreamReport

    return StreamReport(
        strategy=reports[0].strategy,
        quality=float(np.mean([r.quality for r in reports])),
        displayable_fraction=float(
            np.mean([r.displayable_fraction for r in reports])
        ),
        stall_ratio=float(np.mean([r.stall_ratio for r in reports])),
        mean_latency_s=float(np.mean([r.mean_latency_s for r in reports])),
        bandwidth_overhead=float(
            np.mean([r.bandwidth_overhead for r in reports])
        ),
        mos=float(np.mean([r.mos for r in reports])),
    )


def run_c3d():
    table = {}
    for loss in LOSSES:
        for strategy in STRATEGIES:
            reports = []
            for seed in SEEDS:
                sim = Simulator(seed=seed)
                session = VideoStreamSession(
                    sim,
                    bitrate_bps=3e6,
                    one_way_delay=0.05,
                    loss_rate=loss,
                    strategy=strategy,
                    fec_overhead=0.4,
                    max_retx=6,
                    name=f"{strategy}-{loss}",
                )
                reports.append(session.run(duration=8.0))
            table[(loss, strategy)] = _mean_report(reports)
    return table


def test_c3d_video_fec(benchmark):
    table = benchmark.pedantic(run_c3d, rounds=1, iterations=1)

    header("C3d — Video under loss: none vs ARQ vs FEC (50 ms one-way path)")
    for loss in LOSSES:
        emit(f"loss = {loss:.0%}")
        for strategy in STRATEGIES:
            emit("  " + table[(loss, strategy)].row())

    heavy = 0.05
    plain = table[(heavy, "none")]
    arq = table[(heavy, "arq")]
    fec = table[(heavy, "fec")]
    # Plain streaming collapses under loss.
    assert plain.displayable_fraction < 0.8
    # Both recovery schemes restore nearly all frames.
    assert arq.displayable_fraction > 0.95
    assert fec.displayable_fraction > 0.95
    # ARQ pays in stalls; FEC pays in bandwidth.
    assert fec.stall_ratio < arq.stall_ratio
    assert fec.bandwidth_overhead > arq.bandwidth_overhead
    # Net effect at interactive deadlines: FEC wins on QoE (the Nebula shape).
    assert fec.mos >= arq.mos
    assert fec.mos > plain.mos


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
                        help="smoke mode: one seed, two loss rates")
    parser.add_argument("--trace", action="store_true",
                        help="record wall-clock spans per (loss, strategy)")
    args = parser.parse_args(argv)
    losses = (0.0, 0.05) if args.quick else LOSSES
    seeds = SEEDS[:1] if args.quick else SEEDS
    duration = 4.0 if args.quick else 8.0
    tracer = wall_tracer() if args.trace else None
    table = {}
    for loss in losses:
        for strategy in STRATEGIES:

            def run_cell():
                reports = []
                for seed in seeds:
                    sim = Simulator(seed=seed)
                    session = VideoStreamSession(
                        sim, bitrate_bps=3e6, one_way_delay=0.05,
                        loss_rate=loss, strategy=strategy, fec_overhead=0.4,
                        max_retx=6, name=f"{strategy}-{loss}")
                    reports.append(session.run(duration=duration))
                return _mean_report(reports)

            with wall_phase(tracer, f"{strategy}_loss_{loss:.0%}"):
                table[(loss, strategy)] = run_cell()
    heavy = 0.05
    stages = phase_breakdown_ms(tracer) if tracer is not None else None
    path = write_bench_json(
        "c3d", "fec_mos_at_5pct_loss", table[(heavy, "fec")].mos, "mos",
        params={"losses": list(losses), "seeds": list(seeds),
                "duration_s": duration,
                "mos": {f"{strategy}@{loss:.0%}": report.mos
                        for (loss, strategy), report in table.items()}},
        stages=stages)
    print(f"FEC MOS at 5% loss: {table[(heavy, 'fec')].mos:.2f}; wrote {path}")
    return table


if __name__ == "__main__":
    main()
