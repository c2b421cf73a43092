"""Unit tests for expression capture and pose quantization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sensing.expression import (
    ExpressionCapture,
    N_CHANNELS,
    prototype,
)
from repro.sensing.pose import Pose, quat_from_axis_angle
from repro.sensing.quantize import PoseQuantizer, QuantizationConfig


def test_prototype_unknown_label():
    with pytest.raises(KeyError):
        prototype("smirk")


def test_capture_weights_are_quantized_and_clipped():
    capture = ExpressionCapture(np.random.default_rng(2), noise_std=0.2)
    state = capture.capture(0.0, "surprise")
    assert state.weights.min() >= 0.0
    assert state.weights.max() <= 1.0
    levels = np.round(state.weights * 255)
    assert np.allclose(state.weights, levels / 255)
    assert state.size_bytes == N_CHANNELS


def test_capture_intensity_validation():
    capture = ExpressionCapture(np.random.default_rng(3))
    with pytest.raises(ValueError):
        capture.capture(0.0, "smile", intensity=1.5)


def test_quantizer_roundtrip_error_within_resolution():
    config = QuantizationConfig(position_bits=16, quat_bits=10)
    quantizer = PoseQuantizer(config)
    pose = Pose(
        np.array([3.123456, -7.654321, 1.234567]),
        quat_from_axis_angle((1, 2, 3), 0.8),
    )
    pos_err, ang_err = quantizer.error(pose)
    # Position error bounded by half the grid diagonal.
    assert pos_err < config.position_resolution_m * np.sqrt(3)
    assert ang_err < 0.01  # ~0.6 degrees at 10 bits


def test_quantizer_coarser_bits_larger_error_smaller_size():
    fine = PoseQuantizer(QuantizationConfig(position_bits=20, quat_bits=14))
    coarse = PoseQuantizer(QuantizationConfig(position_bits=8, quat_bits=4))
    pose = Pose(np.array([5.2, -3.3, 1.1]), quat_from_axis_angle((0, 1, 0), 0.5))
    assert coarse.error(pose)[0] > fine.error(pose)[0]
    assert coarse.update_bytes < fine.update_bytes


def test_quantization_config_validation():
    with pytest.raises(ValueError):
        QuantizationConfig(position_bits=2)
    with pytest.raises(ValueError):
        QuantizationConfig(quat_bits=1)
    with pytest.raises(ValueError):
        QuantizationConfig(room_extent_m=-1.0)


@given(
    st.floats(min_value=-19, max_value=19),
    st.floats(min_value=-19, max_value=19),
    st.floats(min_value=0, max_value=3),
    st.floats(min_value=-3, max_value=3),
)
def test_quantizer_roundtrip_always_valid(x, y, z, angle):
    quantizer = PoseQuantizer()
    pose = Pose(np.array([x, y, z]), quat_from_axis_angle((1, 1, 1), angle))
    rebuilt = quantizer.roundtrip(pose)
    assert np.linalg.norm(rebuilt.orientation) == pytest.approx(1.0)
    assert pose.distance_to(rebuilt) < 0.01
