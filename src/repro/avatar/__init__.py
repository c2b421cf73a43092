"""Digital avatars: state, interpolation, prediction, LOD.

The edge server "generates the avatar and their interaction traces"
(Figure 3); the receiving side interpolates between snapshots, predicts
across network gaps, picks a level of detail it can afford to render, and
retargets poses into vacant seats.
"""

from repro.avatar.interpolation import SnapshotBuffer
from repro.avatar.lod import LOD_LEVELS, LodLevel, select_lod
from repro.avatar.prediction import DeadReckoner
from repro.avatar.retarget import SeatTransform, retarget_state
from repro.avatar.state import AvatarState

__all__ = [
    "AvatarState",
    "DeadReckoner",
    "LOD_LEVELS",
    "LodLevel",
    "SeatTransform",
    "SnapshotBuffer",
    "retarget_state",
    "select_lod",
]
