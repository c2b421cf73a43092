"""Unit and property tests for pose/quaternion math."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sensing.pose import (
    IDENTITY_QUAT,
    Pose,
    quat_angle,
    quat_conjugate,
    quat_from_axis_angle,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    slerp,
    yaw_quat,
)

unit_floats = st.floats(min_value=-1.0, max_value=1.0)


def random_quat(seed):
    rng = np.random.default_rng(seed)
    return quat_normalize(rng.normal(size=4))


def test_quat_normalize_unit():
    q = quat_normalize(np.array([2.0, 0.0, 0.0, 0.0]))
    assert np.allclose(q, IDENTITY_QUAT)
    with pytest.raises(ValueError):
        quat_normalize(np.zeros(4))


def test_quat_multiply_identity():
    q = random_quat(1)
    assert np.allclose(quat_multiply(IDENTITY_QUAT, q), q)
    assert np.allclose(quat_multiply(q, IDENTITY_QUAT), q)


def test_quat_conjugate_inverts_rotation():
    q = quat_from_axis_angle((0, 0, 1), 0.7)
    v = np.array([1.0, 2.0, 3.0])
    rotated = quat_rotate(q, v)
    restored = quat_rotate(quat_conjugate(q), rotated)
    assert np.allclose(restored, v)


def test_quat_rotate_90_degrees_about_z():
    q = quat_from_axis_angle((0, 0, 1), np.pi / 2)
    rotated = quat_rotate(q, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(rotated, [0.0, 1.0, 0.0], atol=1e-12)


def test_quat_from_axis_angle_zero_axis_rejected():
    with pytest.raises(ValueError):
        quat_from_axis_angle((0, 0, 0), 1.0)


def test_quat_angle_matches_construction():
    angle = 0.8
    q = quat_from_axis_angle((1, 0, 0), angle)
    assert quat_angle(IDENTITY_QUAT, q) == pytest.approx(angle)


def test_quat_angle_double_cover():
    """q and -q are the same rotation; angle must be 0."""
    q = random_quat(2)
    # acos is ill-conditioned near 1, so allow a few ulps of slack.
    assert quat_angle(q, -q) == pytest.approx(0.0, abs=1e-6)


def test_slerp_endpoints_and_midpoint():
    a = IDENTITY_QUAT
    b = quat_from_axis_angle((0, 0, 1), np.pi / 2)
    assert quat_angle(slerp(a, b, 0.0), a) == pytest.approx(0.0, abs=1e-9)
    assert quat_angle(slerp(a, b, 1.0), b) == pytest.approx(0.0, abs=1e-9)
    mid = slerp(a, b, 0.5)
    assert quat_angle(a, mid) == pytest.approx(np.pi / 4, abs=1e-9)


@given(st.integers(min_value=0, max_value=1000), st.floats(min_value=0, max_value=1))
def test_slerp_returns_unit_quaternions(seed, t):
    a, b = random_quat(seed), random_quat(seed + 1)
    result = slerp(a, b, t)
    assert np.linalg.norm(result) == pytest.approx(1.0)


def test_pose_distance_and_angle():
    a = Pose(np.zeros(3))
    b = Pose(np.array([3.0, 4.0, 0.0]), yaw_quat(np.pi / 2))
    assert a.distance_to(b) == pytest.approx(5.0)
    assert a.angle_to(b) == pytest.approx(np.pi / 2)


def test_pose_interpolate_midpoint():
    a = Pose(np.zeros(3))
    b = Pose(np.array([2.0, 0.0, 0.0]))
    mid = a.interpolate(b, 0.5)
    assert np.allclose(mid.position, [1.0, 0.0, 0.0])


def test_pose_copy_is_independent():
    a = Pose(np.zeros(3))
    b = a.copy()
    b.position[0] = 5.0
    assert a.position[0] == 0.0
