"""A worldwide open seminar: thousands of remote attendees.

Exercises the paper's Section 3.3 scaling prescriptions: regional server
placement for a global audience, session sharding beyond one server's
tick capacity, and the per-client bandwidth the sync tier must provision.

Run:  python examples/world_scale_seminar.py
"""

import itertools

import numpy as np

from repro.cloud.regions import plan_regions, single_server_plan
from repro.cloud.scaling import ShardPlanner
from repro.simkit import Simulator
from repro.sync.protocol import ClientUpdate
from repro.sync.server import SyncServer
from repro.workload.population import sample_worldwide


def main() -> None:
    rng = np.random.default_rng(7)
    population = sample_worldwide(3000, rng)
    print(f"Audience: {len(population)} remote users in "
          f"{len(population.cities())} cities")

    # -- regional servers (C3b) -------------------------------------------
    single = single_server_plan(population, site="hkust_cwb")
    print("\nRTT with ONE server (Hong Kong):")
    print(f"  mean {single.mean_rtt() * 1e3:6.1f} ms, "
          f"p95 {single.p95_rtt() * 1e3:6.1f} ms, "
          f">100ms: {single.fraction_above(0.1):5.1%}")
    for k in (2, 4, 8):
        plan = plan_regions(population, k=k)
        print(f"  k={k} regional servers {sorted(plan.sites)}")
        print(f"       mean {plan.mean_rtt() * 1e3:6.1f} ms, "
              f"p95 {plan.p95_rtt() * 1e3:6.1f} ms, "
              f">100ms: {plan.fraction_above(0.1):5.1%}")

    # -- sharding ------------------------------------------------------------
    planner = ShardPlanner(shard_capacity=500)
    shards = planner.n_shards(len(population))
    visibility = planner.peer_visibility_fraction(len(population))
    print(f"\nSharding: {shards} shards of <=500; each attendee sees the "
          f"stage plus {visibility:.1%} of peers")

    # -- one shard's sync load, measured -----------------------------------------
    sim = Simulator(seed=11)
    server = SyncServer(sim, tick_rate_hz=20.0)
    from repro.avatar.state import AvatarState
    from repro.sensing.pose import Pose
    from repro.workload.traces import SeatedMotion

    n_shard = 300
    traces = []
    for i in range(n_shard):
        trace = SeatedMotion(
            (i % 20 * 1.0, i // 20 * 1.5, 1.2), sim.rng.stream(f"t{i}")
        )
        traces.append(trace)
        server.subscribe(f"u{i}", lambda snapshot: None)

    def publisher(i, trace):
        seqs = itertools.count()

        def publish():
            seq = next(seqs)
            state = AvatarState(f"u{i}", sim.now, trace(sim.now), seq=seq)
            server.ingest(ClientUpdate(f"u{i}", state, seq))
            return 0.05

        return publish

    for i, trace in enumerate(traces):
        sim.every(float("inf"), publisher(i, trace))
    server.run(duration=5.0)
    sim.run(until=5.0)
    egress = server.egress_bytes_per_client_s(5.0)
    print(f"\nOne shard with {n_shard} embodied users at 20 Hz:")
    print(f"  achieved tick rate {server.achieved_tick_rate(5.0):5.1f} Hz")
    print(f"  downstream per client {egress * 8 / 1e3:8.1f} kbit/s")
    print(f"  tick compute p95 "
          f"{server.metrics.tracker('tick_cost').summary().p95 * 1e3:6.2f} ms")


if __name__ == "__main__":
    main()
