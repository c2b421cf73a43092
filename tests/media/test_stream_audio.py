"""Unit tests for streaming sessions, audio, and artifact streams."""

import pytest

from repro.media.audio import (
    AudioConfig,
    AudioStream,
    lip_sync_acceptable,
    lip_sync_offset,
)
from repro.media.slides import SlideDeckStream, WhiteboardStream
from repro.media.stream import VideoStreamSession
from repro.simkit import Simulator


def test_stream_lossless_all_strategies_equivalent_quality():
    reports = {}
    for strategy in ("none", "arq", "fec"):
        sim = Simulator(seed=1)
        session = VideoStreamSession(
            sim, bitrate_bps=3e6, loss_rate=0.0, strategy=strategy,
            name=f"s-{strategy}",
        )
        reports[strategy] = session.run(duration=5.0)
    qualities = [r.quality for r in reports.values()]
    assert max(qualities) - min(qualities) < 1e-9
    assert reports["none"].displayable_fraction == 1.0
    assert reports["fec"].bandwidth_overhead > 0.0
    assert reports["none"].bandwidth_overhead == 0.0


def test_stream_loss_hurts_plain_stream():
    sim = Simulator(seed=2)
    plain = VideoStreamSession(
        sim, bitrate_bps=3e6, loss_rate=0.05, strategy="none", name="plain"
    ).run(duration=10.0)
    assert plain.displayable_fraction < 0.8
    assert plain.quality < 0.7


def test_stream_fec_recovers_quality_without_latency():
    """The Nebula shape: under loss, FEC ~ keeps latency, ARQ pays RTT."""
    sim = Simulator(seed=3)
    fec = VideoStreamSession(
        sim, bitrate_bps=3e6, loss_rate=0.05, strategy="fec",
        fec_overhead=0.3, one_way_delay=0.05, name="fec",
    ).run(duration=10.0)
    sim2 = Simulator(seed=3)
    arq = VideoStreamSession(
        sim2, bitrate_bps=3e6, loss_rate=0.05, strategy="arq",
        one_way_delay=0.05, name="arq",
    ).run(duration=10.0)
    assert fec.displayable_fraction > 0.95
    assert arq.displayable_fraction > 0.95
    # ARQ recovers too, but stalls while waiting a round trip.
    assert fec.stall_ratio < arq.stall_ratio
    assert fec.mos >= arq.mos


def test_stream_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        VideoStreamSession(sim, strategy="magic")
    with pytest.raises(ValueError):
        VideoStreamSession(sim, loss_rate=1.0)
    with pytest.raises(ValueError):
        VideoStreamSession(sim, bitrate_bps=0)
    with pytest.raises(ValueError):
        VideoStreamSession(sim).run(duration=0.0)


def test_stream_rejects_impossible_paths():
    """A -50 ms one-way delay once ran without error and scored MOS 4.46
    over 2 s, better than the 4.31 of a lossless 50 ms path; negative FEC
    overhead and retry budgets were accepted too."""
    sim = Simulator()
    for bad in ({"one_way_delay": -0.05}, {"fec_overhead": -0.1},
                {"max_retx": -1}):
        with pytest.raises(ValueError):
            VideoStreamSession(sim, **bad)
    VideoStreamSession(sim, one_way_delay=0.0, fec_overhead=0.0, max_retx=0)


def test_stream_report_row_printable():
    sim = Simulator(seed=4)
    report = VideoStreamSession(sim, name="row").run(duration=2.0)
    assert "MOS" in report.row()


def test_audio_stream_delays_and_loss():
    sim = Simulator(seed=5)
    audio = AudioStream(sim, one_way_delay=0.04, jitter_std=0.005, loss_rate=0.02)
    audio.transmit(duration=10.0)
    assert audio.mean_delay > 0.04
    assert 0.0 < audio.loss_fraction < 0.1
    assert AudioConfig().frame_bytes == 60


def test_audio_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        AudioStream(sim, loss_rate=1.0)
    stream = AudioStream(sim)
    with pytest.raises(ValueError):
        stream.transmit(duration=0.0)
    with pytest.raises(RuntimeError):
        _ = stream.mean_delay


def test_lip_sync_window():
    # Audio and video together: fine.
    assert lip_sync_acceptable(0.05, 0.05)
    # Audio leads video by 200 ms: detectable.
    assert not lip_sync_acceptable(0.05, 0.25)
    # Audio lags video by 100 ms: still acceptable per ITU.
    assert lip_sync_acceptable(0.15, 0.05)
    # Audio lags by 200 ms: not acceptable.
    assert not lip_sync_acceptable(0.25, 0.05)
    assert lip_sync_offset(0.04, 0.10) == pytest.approx(0.06)


def test_slides_flip_latency_tracked():
    sim = Simulator(seed=6)

    def send(size, on_done):
        # A 200 KB slide over ~16 Mbps: 100 ms transfer.
        sim.call_later(size * 8 / 16e6, on_done)

    slides = SlideDeckStream(sim, send, flips_per_min=10.0)
    slides.run(duration=600.0)
    sim.run()
    assert slides.flips > 50
    assert slides.flip_latency.summary().mean == pytest.approx(0.1, rel=0.01)


def test_whiteboard_strokes_fast():
    sim = Simulator(seed=7)

    def send(size, on_done):
        sim.call_later(0.02, on_done)

    board = WhiteboardStream(sim, send, strokes_per_min=60.0)
    board.run(duration=300.0)
    sim.run()
    assert board.strokes > 100
    assert board.stroke_latency.summary().p99 == pytest.approx(0.02)


def test_artifact_stream_validation():
    sim = Simulator()
    send = lambda size, done: None
    with pytest.raises(ValueError):
        SlideDeckStream(sim, send, slide_bytes=0)
    with pytest.raises(ValueError):
        SlideDeckStream(sim, send, flips_per_min=0)
    with pytest.raises(ValueError):
        WhiteboardStream(sim, send, stroke_bytes=0)
    with pytest.raises(ValueError):
        WhiteboardStream(sim, send, strokes_per_min=0)
