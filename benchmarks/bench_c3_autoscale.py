"""Experiment C3g (Section 3.3): closed-loop shard autoscaling.

C3f served a worldwide class from a *fixed* federation of k=4 shards.
Real campus load is anything but fixed: a diurnal base with scheduled
class starts stacking 10^5-10^6 concurrent users onto it for ninety
minutes at a time.  This bench drives the closed-loop autoscaler
(`repro.cloud.autoscaler`) through exactly that day, twice over:

* **fluid scale** — a time-compressed diurnal + class-surge trace at up
  to ~10^6 simulated users runs against `repro.cloud.fleet.FluidFleet`
  (macro-shards whose signals come from the same `ServerCostModel` the
  live server charges).  Reported: **SLO-violation minutes** (bins where
  >5% of offered users sit on shards whose staleness p95 exceeds the
  budget, or are refused admission) and **server-hours**, autoscaled vs
  the static k=4 baseline C3f froze.
* **live closed loop** — a small worldwide cohort joins through
  `ShardAutoscaler.request_join` as a start-of-class `BurstyArrivals`
  rush against a real `ShardedSyncService`; the loop must split the
  saturated shard (make-before-break `move_user`), keep every client
  single-homed, and admission-defer the overflow until capacity lands.

Both halves must replay byte-identically from the seed: the control
decisions are a pure function of the simulated signals.

Standalone usage::

    PYTHONPATH=src python benchmarks/bench_c3_autoscale.py [--quick]
"""

import dataclasses
import sys
from pathlib import Path

if __package__ in (None, ""):  # direct `python benchmarks/bench_*.py` run
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import numpy as np

from benchmarks.conftest import emit, header
from repro.cloud.autoscaler import (
    SHARD_TEMPLATES,
    AutoscalerConfig,
    ShardAutoscaler,
    ShardTemplate,
)
from repro.obs.flight import FlightRecorder
from repro.obs.slo import SloEngine, SloSpec
from repro.cloud.fleet import FluidFleet
from repro.cloud.regions import DEFAULT_CANDIDATE_SITES, plan_regions
from repro.simkit import Simulator
from repro.sync.federation import ShardedSyncService
from repro.sync.interest import InterestConfig
from repro.sync.server import ServerCostModel
from repro.workload.arrival import BurstyArrivals, DiurnalClassLoad
from repro.workload.population import sample_worldwide
from repro.workload.traces import SeatedMotion

SEED = 42
STATIC_K = 4            # the baseline C3f froze
DAY_S = 86_400.0
BIN_S = 30.0
QUICK_BIN_S = 60.0
#: Full scale: ~60k diurnal base + two overlapping 480k-student class
#: blocks -> ~1.0e6 concurrent at the double-peak.  Quick divides the
#: population *and* the shard SKU by 10, preserving the dynamics at
#: ~1.0e5 peak users.
FULL_SCALE = {"base": 60_000, "enrolled": 480_000, "capacity": 60_000}
QUICK_SCALE = {"base": 6_000, "enrolled": 48_000, "capacity": 6_000}
CLASS_STARTS = (30_000.0, 33_600.0)   # two classes, 1 h apart, 2 h long
CLASS_DURATION_S = 7_200.0
PROVISION_DELAY_S = 180.0
SLO_STALENESS_S = 0.120

# Live segment: a start-of-class rush against a real federation.
LIVE_POPULATION = 16
QUICK_LIVE_POPULATION = 10
LIVE_DURATION = 8.0
QUICK_LIVE_DURATION = 5.0
LIVE_CAPACITY = 8
#: Serialization priced so a full live shard saturates its 20 Hz tick
#: (capacity x ~(capacity-1) states x 1 ms > 50 ms) — the util breach
#: the live loop must detect and split away.
LIVE_COST = ServerCostModel(base=2e-4, per_update=2e-6,
                            per_entity_scan=4e-8, per_state_sent=1e-3)
LIVE_INTEREST = InterestConfig(radius_m=100.0, max_entities=64)


def _fluid_setup(quick: bool):
    scale = QUICK_SCALE if quick else FULL_SCALE
    template = dataclasses.replace(
        SHARD_TEMPLATES["edu.m"], capacity=scale["capacity"],
        provision_delay_s=PROVISION_DELAY_S)
    config = AutoscalerConfig(
        poll_period_s=QUICK_BIN_S if quick else BIN_S,
        breach_polls=2, clear_polls=6, cooldown_s=60.0,
        min_shards=1, max_shards=40, target_fill=0.80,
        merge_target_fill=0.70, admission_fill=0.95,
        prewarm_lead_s=600.0, staleness_budget_s=SLO_STALENESS_S,
    )
    load = DiurnalClassLoad(
        scale["base"],
        [(start, scale["enrolled"], CLASS_DURATION_S)
         for start in CLASS_STARTS],
        day_s=DAY_S, burst_window=300.0,
        tail_rate_per_s=scale["enrolled"] / 2_000.0,
        leave_window=300.0,
    )
    return template, config, load


def run_fluid(seed: int, quick: bool) -> dict:
    """One simulated day, autoscaled and static-k4, same jittered trace."""
    template, config, load = _fluid_setup(quick)
    dt = QUICK_BIN_S if quick else BIN_S

    def run_arm(static):
        rng = np.random.default_rng(seed)  # same trace draws per arm
        fleet = (FluidFleet(template, config, static_shards=STATIC_K)
                 if static else
                 FluidFleet(template, config, forecast=load.forecast))
        return fleet.run(lambda t: load.sample(t, rng), DAY_S, dt)

    auto, static = run_arm(static=False), run_arm(static=True)
    replay = run_arm(static=False)
    return {
        "autoscaled": auto.summary(),
        "static_k4": static.summary(),
        "replay_identical": (
            auto.fingerprint == replay.fingerprint
            and repr(auto.summary()) == repr(replay.summary())
        ),
        "decision_log_len": len(auto.decisions),
    }


def run_live(seed: int, population_size: int, duration: float,
             incident_dir=None, obs: bool = False) -> dict:
    """The rush: everyone joins through admission control at t~0.

    The judgment layer rides inside the control loop: every autoscaler
    poll drains the flight recorder, then the SLO engine rules on the
    home shard's tick-cost stream against its 20 Hz budget.  The rush
    saturating the shard is a sustained overrun -> ``breach``; breach
    pressure requisitions capacity alongside the admission backlog
    (``poll_once``), and when ``incident_dir`` is given the recorder
    dumps ``INCIDENT_<id>.json`` — tick costs, deferred-join depth,
    control decisions and spans — the instant the breach fires.
    """
    population = sample_worldwide(population_size,
                                  np.random.default_rng(seed))
    sim = Simulator(seed=seed, obs=obs)
    plan = plan_regions(population, k=1)
    service = ShardedSyncService(sim, plan, population,
                                 interest_config=LIVE_INTEREST,
                                 cost_model=LIVE_COST)
    home_site = plan.sites[0]
    template = ShardTemplate("live.xs", capacity=LIVE_CAPACITY,
                             provision_delay_s=0.2)
    config = AutoscalerConfig(
        poll_period_s=0.25, breach_polls=2, clear_polls=24, cooldown_s=1.0,
        max_shards=6, admission_fill=1.0, staleness_budget_s=10.0,
    )

    def attach(user_id, _site):
        federated = service.add_client(user_id)
        index = int(user_id.rsplit("-", 1)[-1])
        anchor = ((index % 6) * 2.0, (index // 6) * 2.0, 1.2)
        federated.client.local_pose = SeatedMotion(
            anchor, sim.rng.stream(f"motion-{user_id}"))
        federated.client.run(max(0.1, duration - sim.now))

    home_shard = service.shards[home_site]
    engine = SloEngine()
    # 5 tick-cost samples land per 0.25 s poll; a saturated shard makes
    # every one bad, so both windows burn at 1/budget_fraction = 20x and
    # the breach is immediate.  slow_window_s bounds how long the bad
    # samples linger after the split relieves the shard — 1.5 s plus
    # clear_polls * poll_period_s is the recovery lag the report shows.
    engine.watch(
        SloSpec("tick_overrun", objective=home_shard.tick_period, unit="s",
                description="home-shard tick cost vs its 20 Hz budget",
                budget_fraction=0.05, fast_window_s=0.5, slow_window_s=1.5,
                breach_burn=2.0, warn_burn=1.0, clear_polls=3),
        lambda: home_shard.metrics.tracker("tick_cost").samples)
    pool = [site for site in DEFAULT_CANDIDATE_SITES if site != home_site]
    autoscaler = ShardAutoscaler(sim, service, template, config,
                                 site_pool=pool, attach=attach,
                                 slo_engine=engine)
    flight = FlightRecorder(window_s=3.0, tracer=sim.obs,
                            decisions=autoscaler.decisions, prefix="c3g")
    flight.watch_samples(
        "tick_cost_s",
        lambda: home_shard.metrics.tracker("tick_cost").samples)
    flight.watch_gauge("deferred_joins",
                       lambda: float(len(autoscaler.deferred)))
    if incident_dir is not None:
        flight.bind(engine, incident_dir)
    autoscaler.flight = flight  # polled in lockstep by poll_once
    arrivals = BurstyArrivals(np.random.default_rng(seed),
                              n=population_size, burst_fraction=0.9,
                              burst_window=duration * 0.25)
    users = sorted(user.user_id for user in population.users)
    for user_id, at in zip(users, arrivals.times()):
        if at < duration * 0.8:
            sim.call_at(at, lambda u=user_id: autoscaler.request_join(u))
    service.start(duration)
    autoscaler.run(duration)
    sim.run()

    single_homed = all(
        sum(1 for shard in service.shards.values()
            if user in shard._subscribers) == 1
        for user in service.clients
    )
    final = autoscaler.signals()
    kinds = [d.action for d in autoscaler.decisions]
    return {
        "joined": len(service.clients),
        "deferred_left": len(autoscaler.deferred),
        "shards": sorted(service.shards),
        "splits": kinds.count("split"),
        "defers": kinds.count("defer"),
        "single_homed": single_homed,
        "max_final_tick_utilization": round(
            max((s.tick_utilization for s in final), default=0.0), 4),
        "handoffs_voluntary": int(
            service.metrics.counter("handoffs_voluntary")),
        "fingerprint": autoscaler.fingerprint(),
        "slo_transitions": engine.fingerprint(),
        "slo_breaches": engine.breach_count(),
        "slo_final": engine.state("tick_overrun"),
        "incidents": list(flight.dumped),
    }


def run_c3g(quick: bool = False, seed: int = SEED, tracer=None,
            incident_dir=None) -> dict:
    import tempfile

    from benchmarks._emit import incidents_identical, wall_phase

    obs = incident_dir is not None
    live_population = QUICK_LIVE_POPULATION if quick else LIVE_POPULATION
    live_duration = QUICK_LIVE_DURATION if quick else LIVE_DURATION
    with wall_phase(tracer, "fluid-day"):
        fluid = run_fluid(seed, quick)
    with wall_phase(tracer, "live-loop"):
        live = run_live(seed, live_population, live_duration,
                        incident_dir=incident_dir, obs=obs)
    with wall_phase(tracer, "live-replay"):
        replay_dir = tempfile.mkdtemp() if incident_dir is not None else None
        live_replay = run_live(seed, live_population, live_duration,
                               incident_dir=replay_dir, obs=obs)
    results = {
        "fluid": fluid,
        "live": live,
        "replay_identical": (
            fluid["replay_identical"]
            and repr(live) == repr(live_replay)
        ),
    }
    if incident_dir is not None:
        # The rush incidents must replay byte-for-byte, same bar as C3e.
        results["incident_identical"] = incidents_identical(
            live["incidents"], incident_dir, replay_dir)
    return results


def check_c3g(results: dict) -> None:
    """The acceptance gates; SystemExit on violation (CI runs this)."""
    auto = results["fluid"]["autoscaled"]
    static = results["fluid"]["static_k4"]
    better_slo = (auto["slo_violation_minutes"]
                  <= static["slo_violation_minutes"])
    cheaper = auto["server_hours"] <= static["server_hours"]
    strictly = (auto["slo_violation_minutes"]
                < static["slo_violation_minutes"]
                or auto["server_hours"] < static["server_hours"])
    if not (better_slo and cheaper and strictly):
        raise SystemExit(
            f"autoscaler does not beat static k={STATIC_K}: "
            f"auto={auto} static={static}")
    live = results["live"]
    if not (live["splits"] >= 1 and live["single_homed"]
            and live["joined"] >= live["defers"]):
        raise SystemExit(f"live closed loop failed: {live}")
    if live["max_final_tick_utilization"] >= 1.0:
        raise SystemExit(
            "live fleet still saturated after scaling: "
            f"{live['max_final_tick_utilization']}")
    if not results["replay_identical"]:
        raise SystemExit("seeded replay of control decisions diverged")


def report(results: dict, quick: bool):
    scale = QUICK_SCALE if quick else FULL_SCALE
    peak = results["fluid"]["autoscaled"]["peak_load"]
    header(f"C3g — Closed-loop shard autoscaling over a campus day "
           f"(peak {peak:,} users, SKU capacity {scale['capacity']:,})")
    emit(f"{'arm':<12} {'SLO-viol min':>12} {'server-hours':>13} "
         f"{'peak shards':>12} {'mean shards':>12} {'deferred u-min':>15}")
    for arm in ("autoscaled", "static_k4"):
        row = results["fluid"][arm]
        emit(f"{arm:<12} {row['slo_violation_minutes']:>12.1f} "
             f"{row['server_hours']:>13.2f} {row['peak_shards']:>12} "
             f"{row['mean_shards']:>12.2f} "
             f"{row['deferred_user_minutes']:>15.1f}")
    live = results["live"]
    emit(f"live rush: {live['joined']} joined over {live['shards']} shards "
         f"({live['splits']} split(s), {live['defers']} deferred, "
         f"{live['handoffs_voluntary']} voluntary handoffs)")
    emit(f"  single-homed throughout:      {live['single_homed']}")
    emit(f"  final max tick utilization:   "
         f"{live['max_final_tick_utilization']:.2f}")
    emit(f"  SLO tick_overrun: {live['slo_breaches']} breach(es), "
         f"final state {live['slo_final']}"
         + (f", incident(s) {', '.join(live['incidents'])}"
            if live["incidents"] else ""))
    for line in live["slo_transitions"].splitlines():
        t, slo, change = line.split(" ")
        emit(f"    t={float(t):6.2f} s  {slo} {change}")
    emit(f"seeded replay byte-identical: {results['replay_identical']}")


def test_c3g_autoscale(benchmark):
    results = benchmark.pedantic(run_c3g, rounds=1, iterations=1)
    report(results, quick=False)
    check_c3g(results)
    auto = results["fluid"]["autoscaled"]
    static = results["fluid"]["static_k4"]
    # The headline: elasticity wins both axes against the frozen k=4.
    assert auto["slo_violation_minutes"] < static["slo_violation_minutes"]
    assert auto["server_hours"] < static["server_hours"]
    assert auto["peak_load"] >= 900_000
    assert results["live"]["splits"] >= 1
    assert results["replay_identical"] is True
    # The rush is a judged incident: saturation breaches the tick SLO,
    # the split relieves it, and the engine sees the recovery.
    assert results["live"]["slo_breaches"] >= 1
    assert "->breach" in results["live"]["slo_transitions"]
    assert results["live"]["slo_final"] == "healthy"


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: 10x smaller population and SKU, coarser bins",
    )
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--trace", action="store_true",
        help="wall-clock phase spans land in the JSON and SLO-breach "
             "incidents dump to the results dir",
    )
    args = parser.parse_args(argv)
    from benchmarks._emit import (
        RESULTS_DIR,
        phase_breakdown_ms,
        wall_tracer,
        write_bench_json,
    )
    tracer = wall_tracer() if args.trace else None
    incident_dir = RESULTS_DIR if args.trace else None
    results = run_c3g(args.quick, args.seed, tracer=tracer,
                      incident_dir=incident_dir)
    report(results, args.quick)
    check_c3g(results)

    extra_params = {}
    if args.trace:
        extra_params["wall_phases_ms"] = {
            name: round(value, 3)
            for name, value in phase_breakdown_ms(tracer).items()
        }
        extra_params["incidents"] = ",".join(results["live"]["incidents"])
        extra_params["incident_identical"] = str(
            results["incident_identical"])
        emit(f"incident dumps byte-identical across replay: "
             f"{results['incident_identical']}")
    auto = results["fluid"]["autoscaled"]
    static = results["fluid"]["static_k4"]
    live = results["live"]
    path = write_bench_json(
        "c3g", "slo_violation_minutes", auto["slo_violation_minutes"],
        "min",
        params={
            "quick": args.quick, "seed": args.seed,
            "peak_load": auto["peak_load"],
            "server_hours": auto["server_hours"],
            "static_k": STATIC_K,
            "static_slo_violation_minutes":
                static["slo_violation_minutes"],
            "static_server_hours": static["server_hours"],
            "peak_shards": auto["peak_shards"],
            "mean_shards": auto["mean_shards"],
            "deferred_user_minutes": auto["deferred_user_minutes"],
            "live_joined": live["joined"],
            "live_splits": live["splits"],
            "live_defers": live["defers"],
            "live_slo_breaches": live["slo_breaches"],
            "live_slo_final": live["slo_final"],
            "live_single_homed": str(live["single_homed"]),
            "replay_identical": str(results["replay_identical"]),
            **extra_params,
        })
    emit(f"wrote {path}")
    return results


if __name__ == "__main__":
    main()
