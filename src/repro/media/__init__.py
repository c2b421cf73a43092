"""Real-time media: video codec model, streaming, jitter buffer, audio.

Section 3.3: "many courses may rely on video transmission ... video frames
need to be transmitted in real-time ... Maximizing video quality while
minimizing latency to an imperceptible level has been a significant
research challenge", with joint source coding + application-level FEC
(Nebula) called out as the promising direction.  This package provides the
rate-distortion codec model, the frame/packet pipeline with three recovery
strategies (none / ARQ / FEC), the jitter buffer, and audio lip-sync
accounting used by experiment C3d.
"""

from repro.media.abr import AbrConfig, AbrController
from repro.media.audio import AudioStream, lip_sync_offset
from repro.media.codec import Frame, FrameType, VideoCodecModel
from repro.media.jitterbuffer import JitterBuffer
from repro.media.slides import SlideDeckStream, WhiteboardStream
from repro.media.spatial import SpatialAudioScene
from repro.media.stream import StreamReport, VideoStreamSession
from repro.media.video360 import TiledSphere, Viewport360Config

__all__ = [
    "AbrConfig",
    "AbrController",
    "AudioStream",
    "Frame",
    "FrameType",
    "JitterBuffer",
    "SlideDeckStream",
    "SpatialAudioScene",
    "StreamReport",
    "TiledSphere",
    "VideoCodecModel",
    "Viewport360Config",
    "VideoStreamSession",
    "WhiteboardStream",
    "lip_sync_offset",
]
