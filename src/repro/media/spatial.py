"""Spatial audio: who can be heard, and from where.

The presence model credits spatial audio heavily; this is why.  In a flat
mono mix (video conferencing) every voice arrives from "everywhere", so
concurrent speakers mask each other; with binaural spatialization the
cocktail-party effect lets listeners attend to one voice among several.
The model: per-speaker received level follows distance attenuation, and
intelligibility of the attended speaker depends on the signal-to-babble
ratio — with a spatial-release bonus proportional to angular separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

#: Reference speech level at 1 m, dB.
SPEECH_LEVEL_DB_1M = 60.0
#: Spatial release from masking at full separation, dB (literature: 6-12).
MAX_SPATIAL_RELEASE_DB = 9.0


def received_level_db(distance_m: float, source_level_db: float = SPEECH_LEVEL_DB_1M) -> float:
    """Received level with inverse-square (6 dB per doubling) falloff."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    return source_level_db - 20.0 * math.log10(max(1.0, distance_m))


def angular_separation(listener: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Angle (radians) between two sources as seen from the listener."""
    va = np.asarray(a, dtype=float) - np.asarray(listener, dtype=float)
    vb = np.asarray(b, dtype=float) - np.asarray(listener, dtype=float)
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na < 1e-9 or nb < 1e-9:
        return 0.0
    cos = float(np.clip(np.dot(va, vb) / (na * nb), -1.0, 1.0))
    return float(np.arccos(cos))


@dataclass(frozen=True)
class SpatialAudioScene:
    """A listener plus positioned speakers.

    ``speakers`` is ``[(speaker_id, position)]``; the first axis of
    intelligibility analysis is always "attend to one speaker, treat the
    rest as babble".
    """

    listener: np.ndarray
    speakers: Tuple[Tuple[str, np.ndarray], ...]

    @classmethod
    def build(cls, listener, speakers: Sequence[Tuple[str, Sequence[float]]]):
        return cls(
            listener=np.asarray(listener, dtype=float),
            speakers=tuple(
                (sid, np.asarray(pos, dtype=float)) for sid, pos in speakers
            ),
        )

    def _position_of(self, speaker_id: str) -> np.ndarray:
        for sid, position in self.speakers:
            if sid == speaker_id:
                return position
        raise KeyError(f"unknown speaker: {speaker_id!r}")

    def signal_to_babble_db(self, attended: str, spatialized: bool) -> float:
        """SNR of the attended voice against all other active speakers.

        With spatialization, each masker's effective level is reduced by a
        spatial release proportional to its angular separation from the
        target (up to :data:`MAX_SPATIAL_RELEASE_DB`).
        """
        target_pos = self._position_of(attended)
        target_db = received_level_db(
            max(0.1, float(np.linalg.norm(target_pos - self.listener)))
        )
        masker_power = 0.0
        for sid, position in self.speakers:
            if sid == attended:
                continue
            level = received_level_db(
                max(0.1, float(np.linalg.norm(position - self.listener)))
            )
            if spatialized:
                separation = angular_separation(self.listener, target_pos, position)
                release = MAX_SPATIAL_RELEASE_DB * min(1.0, separation / (np.pi / 2))
                level -= release
            masker_power += 10.0 ** (level / 10.0)
        if masker_power <= 0.0:
            return 60.0  # quiet room: effectively unmasked
        return target_db - 10.0 * math.log10(masker_power)

    def intelligibility(self, attended: str, spatialized: bool) -> float:
        """Fraction of words understood: a logistic in the SNR.

        Midpoint near -2 dB SNR with ~1 dB/10% slope around it — the
        standard speech-in-babble psychometric shape.
        """
        snr = self.signal_to_babble_db(attended, spatialized)
        return 1.0 / (1.0 + math.exp(-(snr + 2.0) / 1.5))
