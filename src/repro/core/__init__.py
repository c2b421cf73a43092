"""The virtual-physical blended Metaverse classroom (the contribution).

:class:`~repro.core.metaverse.MetaverseClassroom` composes the whole
Figure-3 architecture: physical MR classrooms with headsets, room sensors,
WiFi and an edge server each; a cloud-hosted VR classroom for remote
participants; and the real-time links that replicate everyone everywhere.
:func:`~repro.core.unitcase.build_unit_case` instantiates Figure 2's
deployment (HKUST CWB + HKUST GZ + online users from KAIST/MIT/Cambridge).
"""

from repro.core.classroom import PhysicalClassroom
from repro.core.metaverse import DeploymentReport, MetaverseClassroom
from repro.core.participant import Participant, Role
from repro.core.session import ClassSession, SessionReport
from repro.core.unitcase import build_unit_case

__all__ = [
    "ClassSession",
    "DeploymentReport",
    "MetaverseClassroom",
    "Participant",
    "PhysicalClassroom",
    "Role",
    "SessionReport",
    "build_unit_case",
]
