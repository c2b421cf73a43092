"""Comparator teaching modalities from the paper's Section 2 survey.

Figure 1's landscape: computer-mediated teaching via video conferencing,
AR-based classroom interventions, VR-based remote platforms — and the
paper's proposal, the virtual-physical blended Metaverse classroom.  Each
modality is profiled on the same axes so experiment F1 can regenerate the
qualitative comparison as numbers.
"""

from repro.baselines.profiles import MODALITY_PROFILES, ModalityProfile
from repro.baselines.videoconf import VideoConferencePlatform

__all__ = [
    "MODALITY_PROFILES",
    "ModalityProfile",
    "VideoConferencePlatform",
]
