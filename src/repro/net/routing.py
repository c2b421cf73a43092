"""Static shortest-path routing tables over a topology."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.net.topology import Topology


class RoutingTable:
    """All-pairs next-hop table computed from link propagation delays."""

    def __init__(self, next_hops: Dict[Tuple[str, str], str]):
        self._next_hops = next_hops

    @classmethod
    def from_topology(cls, topology: Topology) -> "RoutingTable":
        """One shortest-path tree per destination, the same trees that
        :meth:`Topology.shortest_path` follows, so the two agree."""
        next_hops: Dict[Tuple[str, str], str] = {}
        for dst in topology.sites:
            for src, hop in topology.next_hops_to(dst).items():
                next_hops[(src, dst)] = hop
        return cls(next_hops)

    def next_hop(self, here: str, dst: str) -> str:
        """The neighbour to forward to from ``here`` towards ``dst``."""
        if here == dst:
            raise ValueError("already at destination")
        try:
            return self._next_hops[(here, dst)]
        except KeyError:
            raise KeyError(f"no route from {here!r} to {dst!r}") from None

    def route(self, src: str, dst: str) -> List[str]:
        """Full hop sequence from src to dst (inclusive)."""
        route = [src]
        here = src
        seen = {src}
        while here != dst:
            here = self.next_hop(here, dst)
            if here in seen:
                raise RuntimeError(f"routing loop via {here!r}")
            seen.add(here)
            route.append(here)
        return route
