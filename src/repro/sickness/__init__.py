"""Cybersickness: SSQ scoring, conflict dynamics, fuzzy susceptibility.

Section 3.3 "Navigation and Cybersickness": mismatched visual/vestibular
information (sensory conflict theory, Oman) causes fatigue, headache,
nausea and disorientation, quantified by Kennedy's Simulator Sickness
Questionnaire; latency, FOV, low frame rate and navigation parameters
drive it; susceptibility differs per individual (gender, gaming
experience, age, ethnic origin — handled with fuzzy logic per Wang et
al.); and mitigations (speed protector, vignetting) trade comfort against
capability.
"""

from repro.sickness.conflict import ExposureConfig, SensoryConflictModel
from repro.sickness.fuzzy import FuzzyRule, FuzzySystem, FuzzyVariable, TriangularMF
from repro.sickness.mitigation import FovVignette, SpeedProtector
from repro.sickness.ssq import SSQ_SYMPTOMS, SsqResponse, score_ssq
from repro.sickness.susceptibility import UserTraits, susceptibility_system

__all__ = [
    "ExposureConfig",
    "FovVignette",
    "FuzzyRule",
    "FuzzySystem",
    "FuzzyVariable",
    "SSQ_SYMPTOMS",
    "SensoryConflictModel",
    "SpeedProtector",
    "SsqResponse",
    "TriangularMF",
    "UserTraits",
    "score_ssq",
    "susceptibility_system",
]
