"""Synthetic participant populations scattered over the world.

The paper's scaling challenge: "sharing the real-time course with
thousands of remote users scattered worldwide".  Populations are sampled
from the named world cities with configurable weights (defaulting to a
university-audience mix concentrated in East Asia, per the HKUST/KAIST
unit case, with long tails elsewhere).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.net.geo import CITY_REGIONS, WORLD_CITIES, GeoPoint

#: Default sampling weights: the unit case's audience skews East Asian.
DEFAULT_CITY_WEIGHTS: Dict[str, float] = {
    "hkust_cwb": 0.14,
    "hkust_gz": 0.12,
    "kaist": 0.10,
    "beijing": 0.08,
    "seoul": 0.06,
    "tokyo": 0.06,
    "singapore": 0.06,
    "mumbai": 0.05,
    "london": 0.05,
    "cambridge_uk": 0.04,
    "paris": 0.03,
    "berlin": 0.03,
    "mit": 0.05,
    "new_york": 0.04,
    "san_francisco": 0.03,
    "toronto": 0.02,
    "sydney": 0.02,
    "sao_paulo": 0.01,
    "nairobi": 0.005,
    "dubai": 0.005,
}


@dataclass(frozen=True)
class RemoteUser:
    """One remote attendee of the VR classroom."""

    user_id: str
    city: str
    geo: GeoPoint
    region: str


@dataclass
class RemotePopulation:
    """A sampled set of remote users."""

    users: List[RemoteUser]

    def __len__(self) -> int:
        return len(self.users)

    def cities(self) -> List[str]:
        return sorted({user.city for user in self.users})


def sample_worldwide(
    n: int,
    rng: np.random.Generator,
    weights: Optional[Dict[str, float]] = None,
    jitter_deg: float = 0.5,
) -> RemotePopulation:
    """Sample ``n`` remote users from weighted world cities.

    Each user gets a small coordinate jitter around the city centre so
    populations are not point masses (jitter is clipped at valid
    latitudes/longitudes).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if weights is None:
        weights = DEFAULT_CITY_WEIGHTS
    cities = list(weights)
    probabilities = np.array([weights[c] for c in cities], dtype=float)
    if (probabilities < 0).any() or probabilities.sum() <= 0:
        raise ValueError("weights must be non-negative and sum to > 0")
    probabilities /= probabilities.sum()
    users: List[RemoteUser] = []
    picks = rng.choice(len(cities), size=n, p=probabilities)
    for index, pick in enumerate(picks):
        city = cities[int(pick)]
        base = WORLD_CITIES[city]
        lat = float(np.clip(base.lat + rng.normal(0.0, jitter_deg), -90.0, 90.0))
        lon = float(np.clip(base.lon + rng.normal(0.0, jitter_deg), -180.0, 180.0))
        users.append(
            RemoteUser(
                user_id=f"remote-{index:05d}",
                city=city,
                geo=GeoPoint(lat, lon),
                region=CITY_REGIONS[city],
            )
        )
    return RemotePopulation(users=users)
