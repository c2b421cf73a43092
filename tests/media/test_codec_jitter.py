"""Unit tests for the codec model and jitter buffer."""

import pytest

from repro.media.codec import DecodeState, FrameType, VideoCodecModel
from repro.media.jitterbuffer import JitterBuffer


def test_quality_curve_saturating():
    codec = VideoCodecModel()
    q1, q3, q6 = (codec.quality(b) for b in (1e6, 3e6, 6e6))
    assert 0 < q1 < q3 < q6 < 1.0
    assert codec.quality(0.0) == 0.0
    # Diminishing returns: the second 3 Mbps adds less than the first.
    assert (q6 - q3) < (q3 - codec.quality(0.0))


def test_frame_sizes_average_to_bitrate():
    codec = VideoCodecModel(fps=30.0, gop=30, keyframe_ratio=6.0)
    bitrate = 3e6
    key, delta = codec.frame_sizes(bitrate)
    assert key > delta
    gop_bytes = key + (codec.gop - 1) * delta
    expected = bitrate / 8.0  # one GOP = one second at 30fps/gop30
    assert gop_bytes == pytest.approx(expected, rel=0.01)


def test_frame_sequence_structure():
    codec = VideoCodecModel(fps=10.0, gop=5)
    source = codec.frames(1e6)
    frames = [next(source) for _ in range(12)]
    assert frames[0].frame_type is FrameType.KEY
    assert frames[5].is_key and frames[10].is_key
    assert not frames[1].is_key
    assert frames[3].capture_time == pytest.approx(0.3)


def test_codec_validation():
    with pytest.raises(ValueError):
        VideoCodecModel(fps=0)
    with pytest.raises(ValueError):
        VideoCodecModel(gop=0)
    with pytest.raises(ValueError):
        VideoCodecModel(keyframe_ratio=0.5)
    with pytest.raises(ValueError):
        VideoCodecModel().quality(-1.0)


def test_decode_state_loss_propagates_to_next_keyframe():
    codec = VideoCodecModel(fps=10.0, gop=5)
    source = codec.frames(1e6)
    frames = [next(source) for _ in range(10)]
    decode = DecodeState()
    # Frame 2 (a delta) is lost: frames 2-4 corrupt, 5 (key) recovers.
    displayable = [decode.feed(f, arrived=(f.index != 2)) for f in frames]
    assert displayable == [True, True, False, False, False, True, True, True, True, True]
    assert decode.displayable_fraction == pytest.approx(0.7)


def test_decode_state_lost_keyframe_corrupts_whole_gop():
    codec = VideoCodecModel(fps=10.0, gop=5)
    source = codec.frames(1e6)
    frames = [next(source) for _ in range(10)]
    decode = DecodeState()
    displayable = [decode.feed(f, arrived=(f.index != 0)) for f in frames]
    assert displayable[:5] == [False] * 5
    assert displayable[5:] == [True] * 5


def test_decode_state_empty_raises():
    with pytest.raises(RuntimeError):
        _ = DecodeState().displayable_fraction


def test_jitter_buffer_smooth_arrivals_no_stall():
    buffer = JitterBuffer(target_delay=0.1)
    fps = 10.0
    for i in range(20):
        buffer.push(i, arrival_time=0.05 + i / fps)
    report = buffer.playout_report(20, fps)
    assert report.played == 20
    assert report.stall_total == pytest.approx(0.0)
    assert report.stall_ratio == 0.0


def test_jitter_buffer_late_frame_stalls():
    buffer = JitterBuffer(target_delay=0.05)
    fps = 10.0
    for i in range(10):
        late = 0.2 if i == 5 else 0.0
        buffer.push(i, arrival_time=i / fps + late)
    report = buffer.playout_report(10, fps)
    assert report.stall_total > 0.1
    assert report.played == 10


def test_jitter_buffer_missing_frame_skipped():
    buffer = JitterBuffer(target_delay=0.05, skip_after=0.3)
    fps = 10.0
    for i in range(10):
        if i == 4:
            continue
        buffer.push(i, arrival_time=i / fps)
    report = buffer.playout_report(10, fps)
    assert report.skipped == 1


def test_jitter_buffer_empty():
    report = JitterBuffer().playout_report(10, 10.0)
    assert report.played == 0
    assert report.skipped == 10
    assert report.mean_latency == float("inf")


def test_jitter_buffer_validation():
    with pytest.raises(ValueError):
        JitterBuffer(target_delay=-0.1)
    with pytest.raises(ValueError):
        JitterBuffer(skip_after=0.0)
    with pytest.raises(ValueError):
        JitterBuffer().playout_report(0, 10.0)
    with pytest.raises(ValueError):
        JitterBuffer().playout_report(10, 0.0)


def test_jitter_buffer_duplicate_keeps_earliest():
    buffer = JitterBuffer()
    buffer.push(0, arrival_time=1.0)
    buffer.push(0, arrival_time=0.5)
    assert buffer._arrivals[0] == 0.5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decode_state_bounds_property(seed):
    """Displayable fraction is bounded and keyframe-aligned losses never
    make *later* GOPs undecodable."""
    import numpy as np

    rng = np.random.default_rng(seed)
    codec = VideoCodecModel(fps=30.0, gop=10)
    source = codec.frames(2e6)
    frames = [next(source) for _ in range(100)]
    arrived = rng.random(100) > 0.2
    decode = DecodeState()
    for frame in frames:
        decode.feed(frame, bool(arrived[frame.index]))
    assert 0.0 <= decode.displayable_fraction <= 1.0
    assert decode.displayable + decode.corrupted == decode.total == 100
    # Any GOP whose frames all arrived is fully displayable.
    for gop_start in range(0, 100, 10):
        if arrived[gop_start:gop_start + 10].all():
            fresh = DecodeState()
            for frame in frames[gop_start:gop_start + 10]:
                fresh.feed(frame, True)
            assert fresh.displayable_fraction == 1.0


def test_frame_sizes_scale_linearly_with_bitrate():
    codec = VideoCodecModel()
    key_lo, delta_lo = codec.frame_sizes(1e6)
    key_hi, delta_hi = codec.frame_sizes(4e6)
    assert key_hi == pytest.approx(4 * key_lo, rel=0.01)
    assert delta_hi == pytest.approx(4 * delta_lo, rel=0.01)
