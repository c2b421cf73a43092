"""Network substrate: links, WiFi, WAN topology, transport, FEC.

The paper's architecture (Figure 3) moves pose/expression data over campus
WiFi and wired LANs to edge servers, then over WAN links between campuses
and to the cloud.  This package simulates those paths with store-and-forward
queued links, a geographic propagation-delay model (fiber speed + route
stretch + peering penalties), an 802.11-style contention model, a reliable
transport, and packet-level block FEC.  :mod:`repro.net.faults` adds
deterministic fault injection on top — scheduled link outages,
Gilbert–Elliott burst loss, latency-spike windows and server
crash/restart schedules — for the robustness experiments.
"""

from repro.net.bandwidth import TokenBucket
from repro.net.faults import (
    FaultEvent,
    FaultInjector,
    FaultLog,
    GilbertElliottLoss,
    JitterSpikeSchedule,
    LinkOutageSchedule,
    ServerCrashSchedule,
    SpikeWindow,
)
from repro.net.fec import BlockCode, FecDecoder, FecEncoder
from repro.net.geo import GeoPoint, WORLD_CITIES, haversine_km
from repro.net.latency import WanLatencyModel
from repro.net.link import Link, LinkStats
from repro.net.node import Node, connect
from repro.net.packet import Packet
from repro.net.topology import PathChannel, Site, Topology
from repro.net.transport import ReliableChannel
from repro.net.wifi import WifiNetwork

__all__ = [
    "BlockCode",
    "FaultEvent",
    "FaultInjector",
    "FaultLog",
    "FecDecoder",
    "FecEncoder",
    "GeoPoint",
    "GilbertElliottLoss",
    "JitterSpikeSchedule",
    "LinkOutageSchedule",
    "ServerCrashSchedule",
    "SpikeWindow",
    "Link",
    "LinkStats",
    "Node",
    "Packet",
    "PathChannel",
    "ReliableChannel",
    "Site",
    "TokenBucket",
    "Topology",
    "WanLatencyModel",
    "WifiNetwork",
    "WORLD_CITIES",
    "connect",
    "haversine_km",
]
