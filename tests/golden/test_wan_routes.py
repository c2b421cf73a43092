"""Golden digests of the WAN route tables.

Each topology below is one the repository builds: the unit-case
deployment (``build_unit_case``), the two that the C3e failover bench
wires, and the triangle of ``tests/net/test_topology.py``.  For every
ordered pair of distinct sites, ``Topology.shortest_path`` and
``RoutingTable.route`` are reduced to ``[src, dst, hops]`` lists and
hashed; ``wan_routes.json`` pins one digest per topology and method.

The unit case places its cloud in the same city as the ``cwb`` campus,
so the ``cwb``--``cloud`` edge has zero delay and the ``cwb``↔``gz`` and
``cloud``↔``gz`` routes tie with a two-hop detour; the pinned choice is
the direct edge.  On a mismatch the failure names the topology, the
method and the new digest; a deliberate routing change updates that
entry in the JSON file.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro import Simulator, build_unit_case
from repro.net.geo import WORLD_CITIES
from repro.net.routing import RoutingTable
from repro.net.topology import Site, Topology
from tests.net.test_topology import build_triangle

GOLDEN_PATH = Path(__file__).with_name("wan_routes.json")


def _unit_case(sim):
    return build_unit_case(sim, students_per_campus=1, remote_per_city=0).topology


def _failover_crash(sim):
    topo = Topology(sim)
    for city in ("kaist", "tokyo", "seoul"):
        topo.add_site(Site(city, WORLD_CITIES[city]))
    topo.connect("kaist", "tokyo", rate_bps=100e6)
    topo.connect("kaist", "seoul", rate_bps=100e6)
    return topo


def _failover_outage(sim):
    topo = Topology(sim)
    topo.add_site(Site("hk", WORLD_CITIES["hkust_cwb"]))
    topo.add_site(Site("gz", WORLD_CITIES["hkust_gz"]))
    topo.connect("hk", "gz", rate_bps=20e6, jitter_std=0.0005)
    return topo


TOPOLOGIES = {
    "unit_case": _unit_case,
    "failover_crash": _failover_crash,
    "failover_outage": _failover_outage,
    "triangle": build_triangle,
}


def _digest(rows) -> str:
    blob = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def route_digests(name):
    topo = TOPOLOGIES[name](Simulator(seed=0))
    table = RoutingTable.from_topology(topo)
    pairs = list(itertools.permutations(sorted(topo.sites), 2))
    return {
        f"{name}.shortest_path": _digest(
            [[s, d, topo.shortest_path(s, d)] for s, d in pairs]),
        f"{name}.route": _digest([[s, d, table.route(s, d)] for s, d in pairs]),
    }


def test_unit_case_has_a_zero_delay_tie():
    topo = _unit_case(Simulator(seed=0))
    assert topo.link("cwb", "cloud").prop_delay == 0.0
    assert topo.link("cwb", "gz").prop_delay == topo.link("cloud", "gz").prop_delay


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_route_tables_match_golden_digests(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    for key, got in route_digests(name).items():
        assert got == golden[key], (
            f"{key}: route digest is now {got} (golden {golden[key]})")
