"""User interactivity and perception models.

Section 3.3 "User Interactivity and Perception": headset input throughput
is low (speech + simple gestures) and limited FOV distorts gesture
communication.  Section 3 grounds the social side: social presence and
self-disclosure drive virtual-education quality.  These models quantify
both for the F1/C1 experiments.
"""

from repro.hci.engagement import engagement_index
from repro.hci.fov import gesture_legibility, nonverbal_bandwidth_bps
from repro.hci.input import INPUT_MODALITIES, InputModality, TypingSession
from repro.hci.presence import PresenceFactors, SocialPresenceModel

__all__ = [
    "INPUT_MODALITIES",
    "InputModality",
    "PresenceFactors",
    "SocialPresenceModel",
    "TypingSession",
    "engagement_index",
    "gesture_legibility",
    "nonverbal_bandwidth_bps",
]
