"""Edge servers of the physical MR classrooms.

Figure 3's per-classroom box: aggregate headset + room-sensor data, fuse
pose and expression, generate avatar states, replicate them to the peer
classroom and the cloud, and place incoming remote avatars into vacant
seats with pose correction.
"""

from repro.edge.aggregator import SensorAggregator
from repro.edge.seats import Seat, SeatMap, assign_seats_first_fit, assign_seats_hungarian
from repro.edge.server import EdgeServer

__all__ = [
    "EdgeServer",
    "Seat",
    "SeatMap",
    "SensorAggregator",
    "assign_seats_first_fit",
    "assign_seats_hungarian",
]
