"""Experiment C2 (Section 3.3): cybersickness drivers and mitigation.

"Several technical settings are responsible for the occurrence of
cybersickness, such as latency, FOV, low frame rates, inappropriate
adjustment of navigation parameters ... the Metaverse classroom would
consider to ease the severity of cybersickness by involving individual
factors such as gender, gaming experience, age."

Sweeps each technical factor, profiles fuzzy-individualized users, and
ablates the two mitigations.
"""

import sys
from pathlib import Path

if __package__ in (None, ""):  # direct `python benchmarks/bench_*.py` run
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


from benchmarks.conftest import emit, header
from repro.sickness.conflict import ExposureConfig, SensoryConflictModel
from repro.sickness.mitigation import FovVignette, SpeedProtector
from repro.sickness.susceptibility import UserTraits, susceptibility_of, susceptibility_system

EXPOSURE_S = 30 * 60.0


def ssq_total(config: ExposureConfig, susceptibility: float = 1.0) -> float:
    model = SensoryConflictModel(susceptibility=susceptibility)
    model.expose(config, EXPOSURE_S)
    return model.ssq().total


def run_c2():
    base = dict(navigation_speed_m_s=2.0)
    sweeps = {
        "latency_ms": [
            (value, ssq_total(ExposureConfig(motion_to_photon_ms=value, **base)))
            for value in (20, 50, 100, 200)
        ],
        "fov_deg": [
            (value, ssq_total(ExposureConfig(fov_deg=value, **base)))
            for value in (60, 90, 110, 140)
        ],
        "frame_rate_hz": [
            (value, ssq_total(ExposureConfig(frame_rate_hz=value, **base)))
            for value in (30, 45, 60, 90)
        ],
        "speed_m_s": [
            (value, ssq_total(ExposureConfig(navigation_speed_m_s=value)))
            for value in (0.0, 1.0, 2.0, 4.0)
        ],
    }
    return sweeps


def test_c2_cybersickness(benchmark):
    sweeps = benchmark.pedantic(run_c2, rounds=1, iterations=1)

    header("C2 — SSQ total vs technical factors (30 min exposure)")
    for factor, series in sweeps.items():
        row = "  ".join(f"{value:g}->{ssq:5.1f}" for value, ssq in series)
        emit(f"  {factor:<14} {row}")
        totals = [ssq for _v, ssq in series]
        if factor == "frame_rate_hz":
            assert all(a >= b - 1e-9 for a, b in zip(totals, totals[1:]))
        else:
            assert all(a <= b + 1e-9 for a, b in zip(totals, totals[1:]))

    emit()
    emit("Individual susceptibility (fuzzy, Wang et al. style):")
    system = susceptibility_system()
    users = {
        "young gamer (21, 18h/wk)": UserTraits(21, 18.0),
        "average student (24, 4h/wk)": UserTraits(24, 4.0),
        "older non-gamer (58, 0h/wk)": UserTraits(58, 0.0),
        "habituated (24, 4h/wk, 10 sessions)": UserTraits(24, 4.0, prior_vr_sessions=10),
    }
    config = ExposureConfig(navigation_speed_m_s=2.0)
    profile = {}
    for label, traits in users.items():
        susceptibility = susceptibility_of(traits, system)
        profile[label] = ssq_total(config, susceptibility)
        emit(f"  {label:<38} susceptibility {susceptibility:4.2f} "
             f"-> SSQ {profile[label]:5.1f}")
    assert profile["young gamer (21, 18h/wk)"] < profile["average student (24, 4h/wk)"]
    assert profile["average student (24, 4h/wk)"] < profile["older non-gamer (58, 0h/wk)"]
    assert (profile["habituated (24, 4h/wk, 10 sessions)"]
            < profile["average student (24, 4h/wk)"])

    emit()
    emit("Mitigation ablation (roaming at 3 m/s, 110-deg FOV):")
    aggressive = ExposureConfig(navigation_speed_m_s=3.0, fov_deg=110.0)
    raw = ssq_total(aggressive)
    speed = ssq_total(SpeedProtector(1.2).apply(aggressive))
    vignette = ssq_total(FovVignette(60.0).apply(aggressive))
    both = ssq_total(FovVignette(60.0).apply(SpeedProtector(1.2).apply(aggressive)))
    emit(f"  none            {raw:6.1f}")
    emit(f"  speed protector {speed:6.1f}")
    emit(f"  FOV vignette    {vignette:6.1f}")
    emit(f"  both            {both:6.1f}")
    assert both < min(speed, vignette) < max(speed, vignette) < raw


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
                        help="record wall-clock spans per factor sweep")
    args = parser.parse_args(argv)
    tracer = wall_tracer() if args.trace else None
    with wall_phase(tracer, "factor_sweeps"):
        sweeps = run_c2()
    latency_curve = dict(sweeps["latency_ms"])
    stages = phase_breakdown_ms(tracer) if tracer is not None else None
    path = write_bench_json(
        "c2", "ssq_at_200ms_latency", latency_curve[200], "ssq",
        params={factor: {str(v): s for v, s in series}
                for factor, series in sweeps.items()},
        stages=stages)
    print(f"SSQ at 200 ms motion-to-photon: {latency_curve[200]:.1f}; "
          f"wrote {path}")
    return sweeps


if __name__ == "__main__":
    main()
