"""Class participants: students, instructors, guest speakers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.sickness.susceptibility import UserTraits


class Role(enum.Enum):
    """What a participant does in the class."""

    STUDENT = "student"
    INSTRUCTOR = "instructor"
    SPEAKER = "speaker"


@dataclass
class Participant:
    """One person attending the Metaverse classroom.

    ``campus`` names a physical classroom for on-site attendees; remote
    attendees have ``campus=None`` and a ``city`` instead (Figure 2: the
    lower half's KAIST/MIT/Cambridge users).
    """

    participant_id: str
    role: Role = Role.STUDENT
    campus: Optional[str] = None
    city: Optional[str] = None
    device: str = "standalone_hmd"
    traits: UserTraits = field(default_factory=UserTraits)

    def __post_init__(self):
        if (self.campus is None) == (self.city is None):
            raise ValueError(
                "exactly one of campus (physical) or city (remote) must be set"
            )

    @property
    def is_remote(self) -> bool:
        return self.campus is None
