"""User interactivity and perception models.

Section 3.3 "User Interactivity and Perception": headset input throughput
is low (speech + simple gestures), limited FOV distorts gesture
communication, and multi-modal feedback cues are needed to keep presence
and realism.  Section 3 grounds the social side: social presence and
self-disclosure drive virtual-education quality.  These models quantify
all of that for the F1/C1 experiments.
"""

from repro.hci.engagement import engagement_index
from repro.hci.feedback import FeedbackCue, MultiModalFeedback
from repro.hci.fov import gesture_legibility, nonverbal_bandwidth_bps
from repro.hci.input import INPUT_MODALITIES, InputModality, TypingSession
from repro.hci.presence import PresenceFactors, SocialPresenceModel

__all__ = [
    "FeedbackCue",
    "INPUT_MODALITIES",
    "InputModality",
    "MultiModalFeedback",
    "PresenceFactors",
    "SocialPresenceModel",
    "TypingSession",
    "engagement_index",
    "gesture_legibility",
    "nonverbal_bandwidth_bps",
]
