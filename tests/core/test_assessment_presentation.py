"""Tests for assessment (feature i)."""

import numpy as np
import pytest

from repro.core.assessment import (
    AssessmentEngine,
    QuizItem,
    QuizResult,
    RetentionModel,
)


def quiz_items(n=10, spread=2.0):
    return [
        QuizItem(f"q{i}", difficulty=-spread + 2 * spread * i / max(1, n - 1))
        for i in range(n)
    ]


def test_irt_item_shape():
    easy = QuizItem("e", difficulty=-2.0)
    hard = QuizItem("h", difficulty=2.0)
    assert easy.p_correct(0.0) > 0.85
    assert hard.p_correct(0.0) < 0.15
    assert easy.p_correct(0.0) > easy.p_correct(-1.0)
    with pytest.raises(ValueError):
        QuizItem("x", 0.0, discrimination=0.0)


def test_stronger_ability_scores_higher():
    rng = np.random.default_rng(0)
    engine = AssessmentEngine(quiz_items(20), rng)
    weak = [engine.administer(f"w{i}", ability=-1.0).score for i in range(30)]
    strong = [engine.administer(f"s{i}", ability=1.5).score for i in range(30)]
    assert np.mean(strong) > np.mean(weak) + 0.2


def test_attention_gates_performance():
    """The link to the rest of the system: distraction costs marks."""
    rng = np.random.default_rng(1)
    engine = AssessmentEngine(quiz_items(20), rng)
    attentive = [
        engine.administer(f"a{i}", 1.0, attention_fraction=0.95).score
        for i in range(30)
    ]
    distracted = [
        engine.administer(f"d{i}", 1.0, attention_fraction=0.4).score
        for i in range(30)
    ]
    assert np.mean(attentive) > np.mean(distracted) + 0.1


def test_class_analytics():
    rng = np.random.default_rng(2)
    engine = AssessmentEngine(quiz_items(5), rng)
    for i in range(40):
        engine.administer(f"s{i}", ability=float(rng.normal(0, 1)))
    assert 0.0 < engine.class_mean_score() < 1.0


def test_assessment_validation():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        AssessmentEngine([], rng)
    with pytest.raises(ValueError):
        AssessmentEngine([QuizItem("a", 0.0), QuizItem("a", 1.0)], rng)
    engine = AssessmentEngine(quiz_items(3), rng)
    with pytest.raises(ValueError):
        engine.administer("x", 0.0, attention_fraction=1.5)
    with pytest.raises(RuntimeError):
        engine.class_mean_score()
    with pytest.raises(ValueError):
        _ = QuizResult("x", {}).score


def test_brelsford_retention_shape():
    """Paper-cited result: VR-lab learners retain better at 4 weeks."""
    model = RetentionModel()
    lecture_now = model.retention(engagement=0.5, weeks=0.0, hands_on=False)
    vr_now = model.retention(engagement=0.7, weeks=0.0, hands_on=True)
    lecture_4wk = model.retention(engagement=0.5, weeks=4.0, hands_on=False)
    vr_4wk = model.retention(engagement=0.7, weeks=4.0, hands_on=True)
    assert vr_now > lecture_now
    # The gap *widens* with delay — the retention effect, not just gain.
    assert (vr_4wk - lecture_4wk) > (vr_now - lecture_now) * 0.8
    assert vr_4wk > lecture_4wk * 1.3


def test_retention_validation():
    model = RetentionModel()
    with pytest.raises(ValueError):
        model.retention(1.5, 1.0, True)
    with pytest.raises(ValueError):
        model.retention(0.5, -1.0, True)
