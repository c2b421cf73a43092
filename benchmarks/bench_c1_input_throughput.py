"""Experiment C1b (Section 3.3): headset input throughput and FOV limits.

"The user inputs on mobile MR and VR headsets are far from satisfaction,
resulting in low throughput rates in general ... current input methods of
headsets are primarily speech recognition and simple hand gestures."
Monte-carlo text entry per modality, plus FOV-limited gesture legibility
across display classes.
"""

import sys
from pathlib import Path

if __package__ in (None, ""):  # direct `python benchmarks/bench_*.py` run
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


import math

import numpy as np

from benchmarks.conftest import emit, header
from repro.avatar.lod import level_by_name
from repro.baselines.profiles import MODALITY_PROFILES
from repro.hci.fov import gesture_legibility
from repro.hci.input import INPUT_MODALITIES, TypingSession

WORDS = 300


def run_c1b():
    results = {}
    for name, modality in INPUT_MODALITIES.items():
        session = TypingSession(modality, np.random.default_rng(5))
        session.enter_words(WORDS)
        results[name] = (session.achieved_wpm, session.retries)
    return results


def test_c1b_input_throughput(benchmark):
    results = benchmark(run_c1b)

    header("C1b — Input throughput by modality (300-word entry task)")
    emit(f"{'modality':<20} {'achieved WPM':>13} {'retries':>8} "
         f"{'vs keyboard':>12}")
    keyboard_wpm = results["physical_keyboard"][0]
    for name, (wpm, retries) in sorted(results.items(), key=lambda kv: -kv[1][0]):
        emit(f"{name:<20} {wpm:>13.1f} {retries:>8d} {wpm / keyboard_wpm:>11.1%}")

    # Headset-native inputs all fall well short of the keyboard.
    for name in ("speech", "vr_controller", "hand_gesture", "gaze_dwell"):
        assert results[name][0] < 0.75 * keyboard_wpm
    assert results["hand_gesture"][0] < 0.25 * keyboard_wpm

    emit()
    emit("Gesture legibility of a 120-degree body gesture (high-LOD avatar):")
    high = level_by_name("high")
    gesture = math.radians(120.0)
    legibilities = {}
    for name, profile in MODALITY_PROFILES.items():
        legibility = gesture_legibility(profile.display, gesture, high)
        legibilities[name] = legibility
        emit(f"  {name:<20} FOV {profile.display.fov_horizontal_deg:5.0f} deg "
             f"-> legibility {legibility:5.3f}")
    # The paper: limited FOV (AR visors, desktop windows) distorts
    # nonverbal communication relative to wide-FOV VR displays.
    assert legibilities["blended_metaverse"] > legibilities["ar_classroom"]
    assert legibilities["ar_classroom"] > legibilities["video_conference"]


def main(argv=None):
    import argparse

    from benchmarks._emit import (
        export_trace,
        phase_breakdown_ms,
        wall_phase,
        wall_tracer,
        write_bench_json,
    )

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: shorter entry task")
    parser.add_argument("--trace", action="store_true",
                        help="record wall-clock spans per modality phase")
    args = parser.parse_args(argv)
    words = 60 if args.quick else WORDS
    tracer = wall_tracer() if args.trace else None
    results = {}
    for name, modality in INPUT_MODALITIES.items():
        session = TypingSession(modality, np.random.default_rng(5), obs=tracer)
        with wall_phase(tracer, name) as phase:
            session.enter_words(words, trace_parent=phase)
        results[name] = (session.achieved_wpm, session.retries)
    stages = phase_breakdown_ms(tracer) if tracer is not None else None
    path = write_bench_json(
        "c1b", "speech_wpm", results["speech"][0], "wpm",
        params={"words": words,
                **{name: wpm for name, (wpm, _r) in results.items()}},
        stages=stages)
    if tracer is not None:
        export_trace(tracer.spans(), "c1b")
    print(f"speech {results['speech'][0]:.1f} WPM vs keyboard "
          f"{results['physical_keyboard'][0]:.1f} WPM; wrote {path}")
    return results


if __name__ == "__main__":
    main()
