"""Experiment C1a (Section 3.3): interaction latency vs task performance.

"In highly interactive applications, users start to notice latency above
100 ms.  Besides, a latency below 100 ms still affects user performance
despite less noticeable" (Claypool & Claypool).  Sweeps injected RTT and
reports normalized task performance, degradation, and noticeability.
"""

import sys
from pathlib import Path

if __package__ in (None, ""):  # direct `python benchmarks/bench_*.py` run
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


from benchmarks.conftest import emit, header
from repro.metrics.qoe import InteractionQoeModel

RTTS_MS = (0, 25, 50, 75, 100, 150, 200, 300, 500)


def run_c1a():
    model = InteractionQoeModel()
    return {
        rtt: (model.performance(rtt), model.degradation(rtt), model.is_noticeable(rtt))
        for rtt in RTTS_MS
    }


def test_c1a_latency_threshold(benchmark):
    series = benchmark(run_c1a)

    header("C1a — Interaction latency vs task performance (Claypool shape)")
    emit(f"{'RTT ms':>8} {'performance':>12} {'degradation':>12} {'noticeable':>11}")
    for rtt, (performance, degradation, noticeable) in series.items():
        emit(f"{rtt:>8} {performance:>12.3f} {degradation:>12.3f} "
             f"{str(noticeable):>11}")

    performances = [series[rtt][0] for rtt in RTTS_MS]
    # Monotone decreasing.
    assert all(a >= b for a, b in zip(performances, performances[1:]))
    # Below 100 ms: measurable but modest degradation (<20%).
    assert 0.0 < series[75][1] < 0.20
    # The noticeability flag flips right above 100 ms.
    assert not series[100][2] and series[150][2]
    # Hundreds of ms: performance collapses below 40%.
    assert series[300][0] < 0.4


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
    model = InteractionQoeModel()
    series = {}
    for rtt in RTTS_MS:
        with wall_phase(tracer, f"rtt_{rtt}ms"):
            series[rtt] = (model.performance(rtt), model.degradation(rtt),
                           model.is_noticeable(rtt))
    stages = phase_breakdown_ms(tracer) if tracer is not None else None
    path = write_bench_json(
        "c1a", "performance_at_100ms", series[100][0], "fraction",
        params={str(rtt): performance
                for rtt, (performance, _d, _n) in series.items()},
        stages=stages)
    print(f"performance at 100 ms RTT: {series[100][0]:.3f}; wrote {path}")
    return series


if __name__ == "__main__":
    main()
