"""WAN topology: sites, multi-hop paths, and path channels."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.geo import GeoPoint
from repro.net.latency import fiber_delay
from repro.net.link import Link
from repro.net.packet import Packet
from repro.simkit.engine import Simulator


@dataclass(frozen=True)
class Site:
    """A named location participating in the topology."""

    name: str
    geo: GeoPoint
    region: str = "default"


class Topology:
    """A graph of sites connected by duplex queued links.

    Every edge is backed by two :class:`~repro.net.link.Link` instances (one
    per direction) so multi-hop transfers experience true store-and-forward
    queueing at every hop.  Routes minimise total propagation delay.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.sites: Dict[str, Site] = {}
        self._adjacency: Dict[str, Dict[str, float]] = {}  # site -> neighbour -> delay
        self._links: Dict[Tuple[str, str], Link] = {}

    def add_site(self, site: Site) -> Site:
        if site.name in self.sites:
            raise ValueError(f"duplicate site: {site.name!r}")
        self.sites[site.name] = site
        self._adjacency[site.name] = {}
        return site

    def _require(self, name: str) -> None:
        if name not in self.sites:
            raise KeyError(f"unknown site: {name!r}")

    def connect(
        self,
        a: str,
        b: str,
        rate_bps: float,
        prop_delay: Optional[float] = None,
        stretch: float = 1.4,
        **link_kwargs,
    ) -> None:
        """Add a duplex edge; delay defaults to the stretched fiber model.
        A pair connects once: channels would keep a replaced edge's links."""
        for name in (a, b):
            self._require(name)
        if a == b or b in self._adjacency[a]:
            raise ValueError(f"cannot connect {a!r} and {b!r}: self-loop or existing edge")
        if prop_delay is None:
            prop_delay = fiber_delay(self.sites[a].geo, self.sites[b].geo, stretch)
        forward = Link(self.sim, rate_bps, prop_delay, name=f"{a}->{b}", **link_kwargs)
        backward = Link(self.sim, rate_bps, prop_delay, name=f"{b}->{a}", **link_kwargs)
        self._links[(a, b)] = forward
        self._links[(b, a)] = backward
        self._adjacency[a][b] = self._adjacency[b][a] = prop_delay

    def link(self, a: str, b: str) -> Link:
        try:
            return self._links[(a, b)]
        except KeyError:
            raise KeyError(f"no link {a!r} -> {b!r}") from None

    def next_hops_to(self, dst: str) -> Dict[str, str]:
        """Every other reachable site's next hop towards ``dst`` (Dijkstra).

        Sites settle in ``(delay, name)`` order and a hop is replaced only
        by a strictly shorter one, so equal-delay ties keep the hop settled
        first, whatever order the edges were added in.
        """
        self._require(dst)
        delay = {dst: 0.0}
        hops: Dict[str, str] = {}
        heap = [(0.0, dst)]
        while heap:
            here_delay, here = heapq.heappop(heap)
            if here_delay > delay[here]:
                continue  # superseded by a shorter entry
            for there, edge_delay in self._adjacency[here].items():
                candidate = here_delay + edge_delay
                if there not in delay or candidate < delay[there]:
                    delay[there] = candidate
                    hops[there] = here
                    heapq.heappush(heap, (candidate, there))
        return hops

    def shortest_path(self, a: str, b: str) -> List[str]:
        """Minimum-propagation-delay route between two sites."""
        self._require(a)
        hops = self.next_hops_to(b)
        route = [a]
        while route[-1] != b:
            if route[-1] not in hops:
                raise ValueError(f"no route between {a!r} and {b!r}")
            route.append(hops[route[-1]])
        return route

    def path_propagation_delay(self, a: str, b: str) -> float:  # replint: ignore[ARCH003] -- analytic idle-path delay the routing tests check against
        """Sum of propagation delays along the best route (no queueing)."""
        route = self.shortest_path(a, b)
        return sum(
            self.link(u, v).prop_delay for u, v in zip(route, route[1:])
        )

    def channel(self, a: str, b: str) -> "PathChannel":
        """A send channel following the current best route from a to b."""
        return PathChannel(self, self.shortest_path(a, b))


class PathChannel:
    """Store-and-forward delivery along a fixed route of links."""

    def __init__(self, topology: Topology, route: List[str]):
        if len(route) < 1:
            raise ValueError("route must contain at least one site")
        self.topology = topology
        self.route = list(route)
        self.links = [
            topology.link(u, v) for u, v in zip(route, route[1:])
        ]

    @property
    def src(self) -> str:
        return self.route[0]

    @property
    def dst(self) -> str:
        return self.route[-1]

    def min_delay(self, packet_size: int = 1) -> float:  # replint: ignore[ARCH003] -- analytic idle-path delay the routing tests check against
        """Idle-network delivery time for a packet of ``packet_size`` bytes."""
        total = 0.0
        for link in self.links:
            total += link.prop_delay + packet_size * 8.0 / link.rate_bps
        return total

    def send(self, packet: Packet, deliver: Callable[[Packet], None]) -> None:
        """Forward hop by hop; ``deliver`` runs at the destination.

        Drops (queue overflow or loss) silently terminate the journey, as on
        a real network.
        """
        if not self.links:
            # Local delivery within the same site: immediate.
            self.topology.sim.call_later(0.0, lambda: deliver(packet))
            return
        self._forward(packet, 0, deliver)

    def _forward(self, packet: Packet, hop: int, deliver) -> None:
        link = self.links[hop]
        if hop == len(self.links) - 1:
            link.send(packet, deliver)
        else:
            link.send(packet, lambda p: self._forward(p, hop + 1, deliver))
