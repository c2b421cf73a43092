"""The Simulator Sickness Questionnaire (Kennedy et al., 1993).

Sixteen symptoms rated 0-3 map onto three weighted subscales — Nausea,
Oculomotor, Disorientation — with the published scaling constants
(N x 9.54, O x 7.58, D x 13.92, Total x 3.74).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

#: symptom -> (in Nausea, in Oculomotor, in Disorientation), per the
#: original factor loadings.
SSQ_SYMPTOMS: Dict[str, Tuple[bool, bool, bool]] = {
    "general_discomfort": (True, True, False),
    "fatigue": (False, True, False),
    "headache": (False, True, False),
    "eyestrain": (False, True, False),
    "difficulty_focusing": (False, True, True),
    "increased_salivation": (True, False, False),
    "sweating": (True, False, False),
    "nausea": (True, False, True),
    "difficulty_concentrating": (True, True, False),
    "fullness_of_head": (False, False, True),
    "blurred_vision": (False, True, True),
    "dizzy_eyes_open": (False, False, True),
    "dizzy_eyes_closed": (False, False, True),
    "vertigo": (False, False, True),
    "stomach_awareness": (True, False, False),
    "burping": (True, False, False),
}

NAUSEA_WEIGHT = 9.54
OCULOMOTOR_WEIGHT = 7.58
DISORIENTATION_WEIGHT = 13.92
TOTAL_WEIGHT = 3.74


@dataclass(frozen=True)
class SsqResponse:
    """Scored questionnaire."""

    nausea: float
    oculomotor: float
    disorientation: float
    total: float


def score_ssq(ratings: Mapping[str, float]) -> SsqResponse:
    """Score a questionnaire of symptom ratings (each 0-3).

    Missing symptoms count as 0; unknown symptom names are rejected.
    """
    for name, value in ratings.items():
        if name not in SSQ_SYMPTOMS:
            raise KeyError(f"unknown SSQ symptom: {name!r}")
        if not 0.0 <= value <= 3.0:
            raise ValueError(f"rating for {name!r} out of [0,3]: {value}")
    raw_n = raw_o = raw_d = 0.0
    for name, (in_n, in_o, in_d) in SSQ_SYMPTOMS.items():
        rating = float(ratings.get(name, 0.0))
        if in_n:
            raw_n += rating
        if in_o:
            raw_o += rating
        if in_d:
            raw_d += rating
    return SsqResponse(
        nausea=raw_n * NAUSEA_WEIGHT,
        oculomotor=raw_o * OCULOMOTOR_WEIGHT,
        disorientation=raw_d * DISORIENTATION_WEIGHT,
        total=(raw_n + raw_o + raw_d) * TOTAL_WEIGHT,
    )
