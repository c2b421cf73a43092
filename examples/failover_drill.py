"""Operations drill: the inter-campus backbone dies mid-class.

At t=6 s the CWB-GZ link is cut.  Replication fails over to the two-leg
cloud relay (campus -> cloud -> campus), so nobody disappears — the cost
is the extra staleness of the longer path.  At t=14 s the backbone is
restored and the direct path resumes.

Run:  python examples/failover_drill.py
"""

import numpy as np

from repro.core.metaverse import MetaverseClassroom
from repro.core.participant import Participant
from repro.simkit import Simulator


def staleness_snapshot(deployment):
    values = []
    for campus in deployment.campuses.values():
        for pid in campus.edge.displayed_avatars:
            values.append(campus.edge.staleness(pid) * 1e3)
    return float(np.mean(values)) if values else float("nan")


def main() -> None:
    sim = Simulator(seed=13)
    deployment = MetaverseClassroom(sim)
    deployment.add_campus("cwb", city="hkust_cwb")
    deployment.add_campus("gz", city="hkust_gz")
    for campus in ("cwb", "gz"):
        for i in range(4):
            deployment.add_participant(Participant(f"{campus}-{i}", campus=campus))
    deployment.wire()

    timeline = []

    def probe():
        timeline.append((sim.now, staleness_snapshot(deployment),
                         len(deployment._failed_pairs) > 0))
        return 1.0

    sim.call_later(1.0, lambda: sim.every(float("inf"), probe))
    sim.call_later(6.0, lambda: deployment.fail_backbone("cwb", "gz"))
    sim.call_later(14.0, lambda: deployment.restore_backbone("cwb", "gz"))
    deployment.run(duration=20.0)

    print("t(s)  mean cross-campus staleness   backbone")
    for t, staleness, failed in timeline:
        bar = "#" * int(min(60, staleness / 5)) if staleness == staleness else ""
        state = "DOWN (cloud relay)" if failed else "up"
        print(f"{t:4.0f}  {staleness:7.1f} ms {bar:<42} {state}")

    report = deployment.report()
    print(f"\nCross-campus visibility through the whole drill: "
          f"{report.cross_campus_visibility():.0%}")
    direct = deployment.topology.link("cwb", "gz")
    print(f"Frames dropped on the dead link while down: "
          f"{direct.stats.dropped_down}")


if __name__ == "__main__":
    main()
