"""Facial expression capture as blendshape vectors.

Expressions are low-dimensional blendshape weight vectors (ARKit-style,
truncated to the channels that matter for classroom communication).  The
capture model adds sensor noise and 8-bit quantization, the frame that
crosses the wire in the communication-efficacy experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

#: Channels kept from the full blendshape set.
CHANNELS = (
    "browInnerUp",
    "browDown",
    "eyeBlinkLeft",
    "eyeBlinkRight",
    "eyeWideLeft",
    "eyeWideRight",
    "jawOpen",
    "mouthSmileLeft",
    "mouthSmileRight",
    "mouthFrownLeft",
    "mouthFrownRight",
    "mouthPucker",
    "cheekPuff",
    "noseSneer",
    "mouthStretch",
    "tongueOut",
)

N_CHANNELS = len(CHANNELS)

#: Prototype blendshape vectors per nameable expression.
_PROTOTYPES: Dict[str, np.ndarray] = {}


def _build_prototypes() -> Dict[str, np.ndarray]:
    def vec(**weights: float) -> np.ndarray:
        v = np.zeros(N_CHANNELS)
        for name, value in weights.items():
            v[CHANNELS.index(name)] = value
        return v

    return {
        "neutral": vec(),
        "smile": vec(mouthSmileLeft=0.8, mouthSmileRight=0.8, eyeWideLeft=0.2, eyeWideRight=0.2),
        "frown": vec(mouthFrownLeft=0.7, mouthFrownRight=0.7, browDown=0.5),
        "surprise": vec(browInnerUp=0.9, eyeWideLeft=0.8, eyeWideRight=0.8, jawOpen=0.5),
        "talking": vec(jawOpen=0.4, mouthStretch=0.3),
        "confused": vec(browDown=0.6, browInnerUp=0.3, mouthPucker=0.3),
    }


_PROTOTYPES = _build_prototypes()


@dataclass(frozen=True)
class ExpressionState:
    """A captured expression frame."""

    time: float
    weights: np.ndarray
    label: Optional[str] = None

    @property
    def size_bytes(self) -> int:
        """Wire size with one byte per channel (weights quantized to 8 bit)."""
        return N_CHANNELS


def prototype(label: str) -> np.ndarray:
    """The canonical blendshape vector of a named expression."""
    try:
        return _PROTOTYPES[label].copy()
    except KeyError:
        raise KeyError(f"unknown expression: {label!r}") from None


class ExpressionCapture:
    """Noisy capture of a participant's true expression.

    ``capture(time, label, intensity)`` returns the measured frame: the
    prototype scaled by intensity, Gaussian channel noise added, weights
    clipped to [0, 1] and quantized to 8 bits (what actually crosses the
    wire).
    """

    def __init__(self, rng: np.random.Generator, noise_std: float = 0.05):
        self.rng = rng
        self.noise_std = float(noise_std)
        self.captured = 0

    def capture(self, time: float, label: str, intensity: float = 1.0) -> ExpressionState:
        if not 0.0 <= intensity <= 1.0:
            raise ValueError(f"intensity must be in [0,1], got {intensity}")
        weights = prototype(label) * intensity
        weights = weights + self.rng.normal(0.0, self.noise_std, size=N_CHANNELS)
        weights = np.clip(weights, 0.0, 1.0)
        weights = np.round(weights * 255.0) / 255.0  # 8-bit quantization
        self.captured += 1
        return ExpressionState(time=time, weights=weights, label=label)
