"""Network substrate: links, WiFi, WAN topology, transport.

The paper's architecture (Figure 3) moves pose/expression data over campus
WiFi and wired LANs to edge servers, then over WAN links between campuses
and to the cloud.  This package simulates those paths with store-and-forward
queued links, a geographic propagation-delay model (fiber speed + route
stretch + peering penalties), an 802.11-style contention model and a
reliable transport.  :mod:`repro.net.faults` adds deterministic fault
injection on top — scheduled link outages, Gilbert–Elliott burst loss
and server crash/restart schedules — for the robustness experiments.
"""

from repro.net.faults import (
    FaultEvent,
    FaultInjector,
    FaultLog,
    GilbertElliottLoss,
    LinkOutageSchedule,
    ServerCrashSchedule,
)
from repro.net.geo import GeoPoint, WORLD_CITIES, haversine_km
from repro.net.latency import WanLatencyModel
from repro.net.link import Link, LinkStats
from repro.net.packet import Packet
from repro.net.topology import PathChannel, Site, Topology
from repro.net.transport import ReliableChannel
from repro.net.wifi import WifiNetwork

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultLog",
    "GeoPoint",
    "GilbertElliottLoss",
    "LinkOutageSchedule",
    "ServerCrashSchedule",
    "Link",
    "LinkStats",
    "Packet",
    "PathChannel",
    "ReliableChannel",
    "Site",
    "Topology",
    "WanLatencyModel",
    "WifiNetwork",
    "WORLD_CITIES",
    "haversine_km",
]
