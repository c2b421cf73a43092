"""Tick-phase profiler: self-time accounting, noop path, export."""

import numpy as np
import pytest

from repro.avatar.state import AvatarState
from repro.metrics.collector import MetricsRegistry
from repro.obs.export import prometheus_text
from repro.obs.profiler import (
    NOOP_PROFILER,
    NoopProfiler,
    TickProfiler,
    guard_overhead_pct,
)
from repro.sensing.pose import Pose
from repro.simkit import Simulator
from repro.sync.interest import InterestConfig, InterestManager
from repro.sync.protocol import ClientUpdate
from repro.sync.server import SyncServer

pytestmark = pytest.mark.obs


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_self_time_excludes_nested_phases():
    clock = FakeClock()
    profiler = TickProfiler(clock=clock)
    profiler.begin("tick")
    clock.advance(1e-3)
    profiler.begin("inner")
    clock.advance(2e-3)
    profiler.end()
    clock.advance(1e-3)
    profiler.end()
    assert profiler.open_phases == 0
    assert profiler.total_self_s("inner") == pytest.approx(2e-3)
    # 4 ms elapsed minus the 2 ms spent inside "inner".
    assert profiler.total_self_s("tick") == pytest.approx(2e-3)


def test_switch_closes_and_opens_at_one_instant():
    clock = FakeClock()
    profiler = TickProfiler(clock=clock)
    profiler.begin("outer")
    profiler.begin("a")
    clock.advance(1e-3)
    profiler.switch("b")
    clock.advance(3e-3)
    profiler.end()
    profiler.end()
    assert profiler.total_self_s("a") == pytest.approx(1e-3)
    assert profiler.total_self_s("b") == pytest.approx(3e-3)
    # The parent absorbed both children as child time: zero self-time.
    assert profiler.total_self_s("outer") == pytest.approx(0.0)


def test_phase_context_manager_and_error_cases():
    clock = FakeClock()
    profiler = TickProfiler(clock=clock)
    with profiler.phase("apply"):
        clock.advance(5e-4)
    assert profiler.total_self_s("apply") == pytest.approx(5e-4)
    with pytest.raises(RuntimeError):
        profiler.end()
    with pytest.raises(RuntimeError):
        profiler.switch("x")


def test_hot_phases_rank_by_total_with_stable_ties():
    clock = FakeClock()
    profiler = TickProfiler(clock=clock)
    for name, dt in (("small", 1e-3), ("big", 5e-3), ("tied", 1e-3)):
        profiler.begin(name)
        clock.advance(dt)
        profiler.end()
    ranked = profiler.hot_phases()
    assert [name for name, _ in ranked] == ["big", "small", "tied"]
    assert sum(row["share"] for _, row in ranked) == pytest.approx(1.0)
    top = profiler.hot_phases(1)
    assert len(top) == 1 and top[0][0] == "big"
    (_, row) = top[0]
    assert row["count"] == 1
    assert row["p50_s"] <= row["p95_s"]
    table = profiler.table()
    assert "big" in table and "share" in table


def test_noop_profiler_is_inert():
    assert NOOP_PROFILER.enabled is False
    assert isinstance(NOOP_PROFILER, NoopProfiler)
    NOOP_PROFILER.begin("x")
    NOOP_PROFILER.switch("y")
    NOOP_PROFILER.end()
    with NOOP_PROFILER.phase("z"):
        pass
    assert NOOP_PROFILER.hot_phases() == []
    assert NOOP_PROFILER.table() == ""
    registry = MetricsRegistry()
    NOOP_PROFILER.to_registry(registry)
    assert prometheus_text(registry) == "\n"


def test_guard_overhead_is_small_fraction_of_a_tick():
    pct = guard_overhead_pct(0.01, iters=20_000)
    assert 0.0 <= pct < 3.0


def test_to_registry_exports_labeled_phase_metrics():
    clock = FakeClock()
    profiler = TickProfiler(clock=clock)
    profiler.begin("interest")
    clock.advance(2e-3)
    profiler.end()
    registry = MetricsRegistry()
    profiler.to_registry(registry)
    text = prometheus_text(registry)
    assert 'repro_profile_phase_self_total_s{phase="interest"}' in text
    assert 'repro_profile_phase_calls{phase="interest"} 1.0' in text
    assert 'repro_profile_phase_self_p95_s{phase="interest"}' in text


def test_sync_server_records_tick_phases():
    sim = Simulator(seed=7)
    profiler = TickProfiler()
    server = SyncServer(
        sim, tick_rate_hz=20.0,
        interest=InterestManager(InterestConfig(radius_m=8.0,
                                                max_entities=30)),
        profiler=profiler)
    for i in range(6):
        server.subscribe(f"u{i}", lambda snapshot: None)
    for i in range(6):
        pose = Pose(position=np.array([i * 1.0, 0.0, 1.2]))
        server.ingest(ClientUpdate(
            f"u{i}", AvatarState(f"u{i}", sim.now, pose, seq=0), 0))
    server.tick_once()
    names = {name for name, _ in profiler.hot_phases()}
    assert {"apply", "interest", "delta", "serialize"} <= names
    assert profiler.open_phases == 0


def test_profiler_does_not_change_tick_results():
    def egress(profiler):
        sim = Simulator(seed=7)
        server = SyncServer(
            sim, tick_rate_hz=20.0,
            interest=InterestManager(InterestConfig(radius_m=8.0,
                                                    max_entities=30)),
            profiler=profiler)
        for i in range(6):
            server.subscribe(f"u{i}", lambda snapshot: None)
        for i in range(6):
            pose = Pose(position=np.array([i * 1.0, 0.0, 1.2]))
            server.ingest(ClientUpdate(
                f"u{i}", AvatarState(f"u{i}", sim.now, pose, seq=0), 0))
        server.tick_once()
        return (server.metrics.counter("snapshot_bytes"),
                server.metrics.counter("snapshots_sent"))

    assert egress(None) == egress(TickProfiler())
