"""Unit tests for topology, routing, and path channels."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.geo import WORLD_CITIES, GeoPoint
from repro.net.packet import Packet
from repro.net.topology import Site, Topology
from repro.simkit import Simulator


def build_triangle(sim):
    """cwb -- gz -- kaist with a slow direct cwb--kaist edge."""
    topo = Topology(sim)
    topo.add_site(Site("cwb", WORLD_CITIES["hkust_cwb"], "east_asia"))
    topo.add_site(Site("gz", WORLD_CITIES["hkust_gz"], "east_asia"))
    topo.add_site(Site("kaist", WORLD_CITIES["kaist"], "east_asia"))
    topo.connect("cwb", "gz", rate_bps=1e9)
    topo.connect("gz", "kaist", rate_bps=1e9)
    topo.connect("cwb", "kaist", rate_bps=1e9, prop_delay=1.0)  # bad route
    return topo


def test_topology_duplicate_site_rejected():
    sim = Simulator()
    topo = Topology(sim)
    topo.add_site(Site("x", GeoPoint(0, 0)))
    with pytest.raises(ValueError):
        topo.add_site(Site("x", GeoPoint(1, 1)))


def test_topology_connect_unknown_site():
    sim = Simulator()
    topo = Topology(sim)
    topo.add_site(Site("x", GeoPoint(0, 0)))
    with pytest.raises(KeyError):
        topo.connect("x", "y", rate_bps=1e6)


@pytest.mark.parametrize("query", ["shortest_path", "channel", "path_propagation_delay"])
def test_route_queries_name_an_unknown_site(query):
    topo = build_triangle(Simulator())
    for a, b in (("mars", "gz"), ("cwb", "mars"), ("mars", "mars")):
        with pytest.raises(KeyError, match="mars"):
            getattr(topo, query)(a, b)


def test_connect_rejects_existing_edge_and_self_loop():
    sim = Simulator()
    topo = build_triangle(sim)
    channel = topo.channel("cwb", "gz")
    for a, b in (("cwb", "gz"), ("gz", "cwb"), ("gz", "gz")):
        with pytest.raises(ValueError):
            topo.connect(a, b, rate_bps=1e6)
    # The links channels were built over are still the topology's links,
    # so taking one down reaches them.
    topo.link("cwb", "gz").up = False
    assert channel.links == [topo.link("cwb", "gz")] and not channel.links[0].up
    with pytest.raises(KeyError):
        topo.link("gz", "gz")


def test_shortest_path_avoids_slow_edge():
    sim = Simulator()
    topo = build_triangle(sim)
    assert topo.shortest_path("cwb", "kaist") == ["cwb", "gz", "kaist"]


def test_no_route_raises():
    sim = Simulator()
    topo = Topology(sim)
    topo.add_site(Site("x", GeoPoint(0, 0)))
    topo.add_site(Site("y", GeoPoint(1, 1)))
    with pytest.raises(ValueError):
        topo.shortest_path("x", "y")


def test_path_channel_end_to_end_delay():
    sim = Simulator()
    topo = build_triangle(sim)
    channel = topo.channel("cwb", "kaist")
    expected_floor = channel.min_delay(packet_size=500)
    arrivals = []
    packet = Packet(src="cwb", dst="kaist", size_bytes=500)
    channel.send(packet, lambda p: arrivals.append(sim.now))
    sim.run()
    assert arrivals[0] == pytest.approx(expected_floor)
    assert expected_floor == pytest.approx(
        topo.path_propagation_delay("cwb", "kaist") + 2 * 500 * 8 / 1e9
    )


def test_path_channel_same_site_is_local():
    sim = Simulator()
    topo = build_triangle(sim)
    channel = topo.channel("cwb", "cwb")
    arrivals = []
    channel.send(Packet(src="cwb", dst="cwb", size_bytes=10), lambda p: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [0.0]


@st.composite
def tied_graphs(draw):
    """A small graph with integer delays (ties are common, including zero
    delays) and two independent edge insertion orders, the second with
    every edge connected from its other end."""
    n = draw(st.integers(min_value=2, max_value=6))
    names = [f"s{i}" for i in draw(st.permutations(range(n)))]
    pairs = list(itertools.combinations(names, 2))
    edges = [(a, b, draw(st.integers(min_value=0, max_value=3)))
             for a, b in pairs if draw(st.booleans())]
    flipped = [(b, a, delay) for a, b, delay in edges]
    return names, draw(st.permutations(edges)), draw(st.permutations(flipped))


def _build(names, edges):
    topo = Topology(Simulator())
    for name in names:
        topo.add_site(Site(name, GeoPoint(0, 0)))
    for a, b, delay in edges:
        topo.connect(a, b, rate_bps=1e9, prop_delay=float(delay))
    return topo


def _brute_force_delays(names, edges):
    """Minimum delay of every reachable ordered pair, over all simple paths."""
    weight = {}
    for a, b, delay in edges:
        weight[(a, b)] = weight[(b, a)] = delay
    best = {}

    def walk(path, total):
        key = (path[0], path[-1])
        best[key] = min(best.get(key, total), total)
        for there in names:
            if there not in path and (path[-1], there) in weight:
                walk(path + [there], total + weight[(path[-1], there)])

    for name in names:
        walk([name], 0)
    return best


@settings(max_examples=150, deadline=None)
@given(tied_graphs())
def test_routes_agree_and_are_shortest_on_ties(graph):
    names, edges, reordered = graph
    topo = _build(names, edges)
    other = _build(list(reversed(names)), reordered)
    best = _brute_force_delays(names, edges)
    for src, dst in itertools.permutations(names, 2):
        if (src, dst) not in best:
            with pytest.raises(ValueError):
                topo.shortest_path(src, dst)
            continue
        path = topo.shortest_path(src, dst)
        assert path == other.shortest_path(src, dst)
        assert path[0] == src and path[-1] == dst
        assert topo.path_propagation_delay(src, dst) == best[(src, dst)]
