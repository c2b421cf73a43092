"""Unit tests for input modalities."""

import itertools

import numpy as np
import pytest

from repro.hci.input import INPUT_MODALITIES, InputModality, TypingSession
from repro.obs.span import SpanTracer


def test_headset_inputs_slower_than_keyboard():
    """C1b shape: the paper's 'low throughput rates' on headsets."""
    keyboard = INPUT_MODALITIES["physical_keyboard"]
    for name in ("speech", "vr_controller", "hand_gesture", "gaze_dwell"):
        assert INPUT_MODALITIES[name].effective_wpm < keyboard.effective_wpm
    # Gesture input is the worst, per the survey.
    assert (
        INPUT_MODALITIES["hand_gesture"].effective_wpm
        == min(m.effective_wpm for m in INPUT_MODALITIES.values())
    )


def test_effective_wpm_accounts_for_errors():
    modality = InputModality("x", 30.0, 5.0, 0.5, 0.0)
    assert modality.effective_wpm == pytest.approx(15.0)


def test_modality_validation():
    with pytest.raises(ValueError):
        InputModality("x", 0.0, 1.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        InputModality("x", 10.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        InputModality("x", 10.0, 1.0, 0.1, -1.0)


def test_typing_session_monte_carlo_matches_model():
    modality = INPUT_MODALITIES["speech"]
    session = TypingSession(modality, np.random.default_rng(0))
    session.enter_words(500)
    assert session.achieved_wpm == pytest.approx(modality.effective_wpm, rel=0.25)
    assert session.retries > 0


def test_input_span_nests_in_its_wall_phase():
    """The ``input`` span covers the call on the tracer's own clock, so it
    sits inside the phase that made the call; the modelled entry time is
    an attribute, not the span's length."""
    ticks = itertools.count()
    tracer = SpanTracer(clock=lambda: float(next(ticks)))
    session = TypingSession(INPUT_MODALITIES["speech"],
                            np.random.default_rng(0), obs=tracer)
    phase = tracer.start_span("speech", "phase", None)
    modelled = session.enter_words(40, trace_parent=phase)
    phase.finish()
    (span,) = tracer.spans("input")
    assert span.context.parent_id == phase.context.span_id
    assert phase.start <= span.start <= span.end <= phase.end
    assert span.duration < modelled
    assert span.attrs["modelled_s"] == modelled


def test_typing_session_validation():
    session = TypingSession(INPUT_MODALITIES["speech"], np.random.default_rng(0))
    with pytest.raises(RuntimeError):
        _ = session.achieved_wpm
    with pytest.raises(ValueError):
        session.enter_words(-1)
