"""Real-time media: video codec model, streaming, jitter buffer, spatial audio.

Section 3.3: "many courses may rely on video transmission ... video frames
need to be transmitted in real-time ... Maximizing video quality while
minimizing latency to an imperceptible level has been a significant
research challenge", with joint source coding + application-level FEC
(Nebula) called out as the promising direction.  This package provides the
rate-distortion codec model, the frame/packet pipeline with three recovery
strategies (none / ARQ / FEC) and the jitter buffer that experiment C3d
runs, and the spatial-audio scene behind experiment F1b.
"""

from repro.media.codec import Frame, FrameType, VideoCodecModel
from repro.media.jitterbuffer import JitterBuffer
from repro.media.spatial import SpatialAudioScene
from repro.media.stream import StreamReport, VideoStreamSession

__all__ = [
    "Frame",
    "FrameType",
    "JitterBuffer",
    "SpatialAudioScene",
    "StreamReport",
    "VideoCodecModel",
    "VideoStreamSession",
]
