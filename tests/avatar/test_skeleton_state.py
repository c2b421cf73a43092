"""Unit tests for the avatar state."""

import numpy as np

from repro.avatar.state import AvatarState
from repro.sensing.expression import N_CHANNELS
from repro.sensing.pose import IDENTITY_QUAT, Pose
from repro.sensing.quantize import QuantizationConfig


def test_avatar_state_wire_bytes_scales_with_content():
    pose = Pose()
    bare = AvatarState("p1", 0.0, pose).wire_bytes()
    rotations = np.tile(IDENTITY_QUAT, (17, 1))  # a 17-joint humanoid
    with_joints = AvatarState(
        "p1", 0.0, pose, joint_rotations=rotations
    ).wire_bytes()
    with_all = AvatarState(
        "p1", 0.0, pose,
        joint_rotations=rotations,
        expression=np.zeros(N_CHANNELS),
    ).wire_bytes()
    assert bare < with_joints < with_all
    assert with_all - with_joints == N_CHANNELS


def test_avatar_state_wire_bytes_respects_quantization():
    pose = Pose()
    fine = AvatarState("p", 0.0, pose).wire_bytes(QuantizationConfig(position_bits=24))
    coarse = AvatarState("p", 0.0, pose).wire_bytes(QuantizationConfig(position_bits=8))
    assert coarse < fine


def test_avatar_state_copy_independent():
    state = AvatarState("p", 0.0, Pose(), expression=np.zeros(3))
    clone = state.copy()
    clone.pose.position[0] = 9.0
    clone.expression[0] = 1.0
    assert state.pose.position[0] == 0.0
    assert state.expression[0] == 0.0
