"""Seeded regression tests for the nondeterminism fixes replint forced.

Set iteration order depends on the per-process hash salt, so the honest
test for a "sorted() the set" fix runs the same seeded scenario in two
subprocesses with *different* ``PYTHONHASHSEED`` values and byte-compares
the outputs.  An in-process test cannot catch these: the salt is fixed
for the life of the interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run_hashseed(script: str, hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, cwd=str(REPO_ROOT), timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


SPAN_ORDER_SCRIPT = """
from repro.avatar.state import AvatarState
from repro.sensing.pose import Pose
from repro.simkit.engine import Simulator
from repro.sync.protocol import ClientUpdate
from repro.sync.server import SyncServer

sim = Simulator(seed=1234, obs=True)
server = SyncServer(sim, tick_rate_hz=20.0)
server.subscribe("u1", lambda s: print("trace_keys", list(s.trace or {})))
# Five traced entities, all within interest range of u1, land in one
# snapshot: the per-snapshot span/trace-map emission order must not
# depend on the hash salt.
for i in range(2, 7):
    entity = f"u{i}"
    root = sim.obs.start_trace("mtp")
    state = AvatarState(entity, sim.now, Pose((float(i), 0.0, 0.0)), seq=0)
    server.ingest(ClientUpdate(entity, state, 0, ctx=root))
server.run(duration=0.2)
sim.run(until=0.2)
for span in sim.obs.spans("interest_delta"):
    print("span", span.attrs.get("entity"))
"""


def test_interest_delta_span_order_stable_across_hash_seeds():
    """Regression: SyncServer iterated the `included` *set* when
    emitting interest_delta spans and the out-of-band snapshot trace
    map, so traced replay output depended on the hash salt."""
    out_a = _run_hashseed(SPAN_ORDER_SCRIPT, "1")
    out_b = _run_hashseed(SPAN_ORDER_SCRIPT, "271828")
    assert "span" in out_a
    assert out_a == out_b


PLANNER_SCRIPT = """
from repro.cloud.autoscaler import (
    AutoscalePlanner, AutoscalerConfig, ShardSignals, ShardTemplate)

template = ShardTemplate("t.s", capacity=100, provision_delay_s=1.0)
planner = AutoscalePlanner(template, AutoscalerConfig(breach_polls=2))
sites = ["z9", "a1", "m5", "k2", "b7", "x3"]
for t in range(6):
    live = sites[: max(2, len(sites) - t)]   # shrinking fleet: streaks prune
    sigs = [ShardSignals(site=s, subscribers=90, tick_utilization=0.95,
                         staleness_p95_s=0.2, egress_bytes_per_s=0.0)
            for s in live]
    actions = planner.decide(t * 30.0, sigs)
    print(t, ";".join(f"{a.kind}:{a.site}" for a in actions))
"""


def test_planner_decision_stream_stable_across_hash_seeds():
    """Regression pin for the streak-pruning loops: the planner's action
    stream must be a pure function of the signal sequence, independent
    of the process hash salt (the pruning iterates a set difference)."""
    out_a = _run_hashseed(PLANNER_SCRIPT, "7")
    out_b = _run_hashseed(PLANNER_SCRIPT, "31415")
    assert "split" in out_a
    assert out_a == out_b


def test_rebalance_exclude_tuple_is_sorted(monkeypatch):
    """Regression: rebalance passed ``tuple(excluded)`` straight off a
    set, letting the hash salt order the exclude tuple that rides into
    the new RegionalPlan's provenance."""
    from repro.cloud.regions import plan_regions
    from repro.sensing.pose import Pose
    from repro.simkit import Simulator
    from repro.sync import federation
    from repro.sync.federation import ShardedSyncService
    from repro.sync.interest import InterestConfig
    from repro.workload.population import sample_worldwide
    from tests.oracles.traces import StationaryMotion

    population = sample_worldwide(8, np.random.default_rng(3))
    sim = Simulator(seed=8)
    plan = plan_regions(population, k=4)
    service = ShardedSyncService(
        sim, plan, population,
        interest_config=InterestConfig(radius_m=50.0, max_entities=16))
    for index, user in enumerate(sorted(population.users,
                                        key=lambda u: u.user_id)):
        federated = service.add_client(user.user_id)
        federated.client.local_pose = StationaryMotion(
            Pose(position=np.array([float(index), 0.0, 1.2])))
        federated.client.run(1.0)
    service.start(1.0)

    captured = {}

    def spy_plan_regions(*args, **kwargs):
        captured["exclude"] = kwargs.get("exclude")
        return plan_regions(*args, **kwargs)

    monkeypatch.setattr(federation, "plan_regions", spy_plan_regions)
    # Exclude two sites so the tuple has an order to get wrong.
    excluded_sites = tuple(plan.sites[:2])
    sim.call_at(0.5, lambda: service.rebalance(exclude=excluded_sites))
    sim.run()
    assert captured["exclude"] == tuple(sorted(captured["exclude"]))
    assert set(excluded_sites) <= set(captured["exclude"])
