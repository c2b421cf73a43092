"""Failure injection: backbone outage and cloud relay."""

import numpy as np
import pytest

from repro.core.metaverse import MetaverseClassroom
from repro.core.participant import Participant
from repro.simkit import Simulator


def build_two_campus(sim, students=2):
    deployment = MetaverseClassroom(sim)
    deployment.add_campus("cwb", city="hkust_cwb")
    deployment.add_campus("gz", city="hkust_gz")
    for campus in ("cwb", "gz"):
        for i in range(students):
            deployment.add_participant(Participant(f"{campus}-{i}", campus=campus))
    deployment.wire()
    return deployment


def test_backbone_failure_drops_direct_path():
    sim = Simulator(seed=1)
    deployment = build_two_campus(sim)
    deployment.fail_backbone("cwb", "gz")
    link = deployment.topology.link("cwb", "gz")
    assert not link.up
    deployment.run(duration=4.0)
    assert link.stats.dropped_down > 0


def test_cloud_relay_keeps_cross_campus_visibility():
    """The failover story: the classrooms stay connected via the cloud."""
    sim = Simulator(seed=2)
    deployment = build_two_campus(sim)
    deployment.fail_backbone("cwb", "gz")
    deployment.run(duration=6.0)
    report = deployment.report()
    assert report.cross_campus_visibility() == 1.0
    # The relay path is longer: campus -> cloud -> campus.
    staleness = report.staleness_cross_campus_ms()
    assert np.mean(staleness) < 400.0  # degraded but interactive-ish


def test_restore_backbone_reenables_direct_path():
    sim = Simulator(seed=3)
    deployment = build_two_campus(sim)
    deployment.fail_backbone("cwb", "gz")
    deployment.restore_backbone("cwb", "gz")
    assert deployment.topology.link("cwb", "gz").up
    deployment.run(duration=4.0)
    assert deployment.report().cross_campus_visibility() == 1.0


def test_fail_backbone_validation():
    sim = Simulator()
    deployment = MetaverseClassroom(sim)
    deployment.add_campus("cwb", city="hkust_cwb")
    with pytest.raises(RuntimeError):
        deployment.fail_backbone("cwb", "gz")
    deployment.add_campus("gz", city="hkust_gz")
    deployment.wire()
    with pytest.raises(KeyError):
        deployment.fail_backbone("cwb", "mars")


def test_cloud_relay_preserves_seat_placement():
    """The relay un-rebases VR coordinates: avatars still sit in seats."""
    sim = Simulator(seed=11)
    deployment = build_two_campus(sim)
    deployment.fail_backbone("cwb", "gz")
    deployment.run(duration=6.0)
    gz = deployment.campuses["gz"]
    scene = gz.edge.scene_states()
    assert scene  # CWB participants visible via the relay
    for pid, state in scene.items():
        seat = gz.edge.seat_of(pid)
        assert seat is not None
        # The displayed avatar is at its assigned seat (cm-scale sway),
        # not somewhere in VR-auditorium coordinates.
        offset = np.linalg.norm(state.pose.position[:2] - seat.position[:2])
        assert offset < 1.0, f"{pid} displaced {offset:.2f} m from seat"
