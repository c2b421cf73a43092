"""End-to-end video streaming with three loss-recovery strategies.

The C3d experiment reproduces the Nebula-shaped result the paper cites:
under loss, retransmission (ARQ) preserves frames but pays round trips,
while application-level FEC pays constant bandwidth overhead and recovers
within the one-way deadline — so FEC wins whenever the latency budget is
tight, which in an interactive classroom it always is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.media.codec import DecodeState, VideoCodecModel
from repro.media.jitterbuffer import JitterBuffer
from repro.metrics.qoe import VideoQoeModel
from repro.simkit.engine import Simulator

MTU_BYTES = 1200


@dataclass
class StreamReport:
    """Outcome of one streaming session."""

    strategy: str
    quality: float            # delivered quality index in [0, 1]
    displayable_fraction: float
    stall_ratio: float
    mean_latency_s: float
    bandwidth_overhead: float  # extra bytes sent / source bytes
    mos: float

    def row(self) -> str:
        return (
            f"{self.strategy:<6} quality={self.quality:5.3f} "
            f"displayable={self.displayable_fraction:5.3f} "
            f"stalls={self.stall_ratio:5.3f} "
            f"latency={self.mean_latency_s * 1e3:7.1f}ms "
            f"overhead={self.bandwidth_overhead:5.2f} MOS={self.mos:4.2f}"
        )


class VideoStreamSession:
    """Streams ``duration`` seconds of encoded video over a lossy path.

    Parameters
    ----------
    strategy:
        ``"none"`` (lost packets lose frames), ``"arq"`` (receiver-driven
        retransmission after one RTT, up to ``max_retx`` times), or
        ``"fec"`` (per-frame parity packets; a frame survives if at least
        ``k`` of ``k + r`` packets arrive).
    one_way_delay / loss_rate:
        The network path; ARQ recovery costs extra round trips on top.
    fec_overhead:
        Parity fraction for the FEC strategy (r = ceil(overhead * k)).
    """

    def __init__(
        self,
        sim: Simulator,
        codec: VideoCodecModel = VideoCodecModel(),
        bitrate_bps: float = 3e6,
        one_way_delay: float = 0.05,
        loss_rate: float = 0.0,
        strategy: str = "none",
        fec_overhead: float = 0.2,
        max_retx: int = 3,
        jitter_target: float = 0.05,
        name: str = "video",
    ):
        if strategy not in ("none", "arq", "fec"):
            raise ValueError(f"unknown strategy: {strategy!r}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        if bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        if one_way_delay < 0:
            raise ValueError("one-way delay must be >= 0")
        if fec_overhead < 0:
            raise ValueError("FEC overhead must be >= 0")
        if max_retx < 0:
            raise ValueError("max retransmissions must be >= 0")
        self.sim = sim
        self.codec = codec
        self.bitrate = float(bitrate_bps)
        self.one_way_delay = float(one_way_delay)
        self.loss_rate = float(loss_rate)
        self.strategy = strategy
        self.fec_overhead = float(fec_overhead)
        self.max_retx = int(max_retx)
        self.jitter_target = float(jitter_target)
        self._rng = sim.rng.stream(f"stream:{name}")
        self.source_bytes = 0
        self.sent_bytes = 0

    # -- per-frame transmission ------------------------------------------------

    def _packet_arrives(self) -> bool:
        return self._rng.random() >= self.loss_rate

    def _transmit_frame(self, size_bytes: int) -> Optional[float]:
        """Simulate one frame's delivery; returns arrival delay or None.

        The delay is relative to the frame's send instant and includes any
        recovery the strategy performs.
        """
        n_packets = max(1, math.ceil(size_bytes / MTU_BYTES))
        self.source_bytes += size_bytes
        rtt = 2.0 * self.one_way_delay

        if self.strategy == "fec":
            k = n_packets
            r = max(1, math.ceil(self.fec_overhead * k))
            self.sent_bytes += size_bytes + r * MTU_BYTES
            arrived = sum(1 for _ in range(k + r) if self._packet_arrives())
            if arrived >= k:
                return self.one_way_delay
            return None

        self.sent_bytes += size_bytes
        missing = sum(1 for _ in range(n_packets) if not self._packet_arrives())
        if missing == 0:
            return self.one_way_delay
        if self.strategy == "none":
            return None
        # ARQ: each retransmission round costs one RTT; a round re-sends
        # the missing packets, which can themselves be lost.
        delay = self.one_way_delay
        for _round in range(self.max_retx):
            delay += rtt
            self.sent_bytes += missing * MTU_BYTES
            missing = sum(1 for _ in range(missing) if not self._packet_arrives())
            if missing == 0:
                return delay
        return None

    # -- session -----------------------------------------------------------

    def run(self, duration: float) -> StreamReport:
        """Stream for ``duration`` seconds and report the outcome."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        n_frames = int(duration * self.codec.fps)
        if n_frames < 1:
            raise ValueError("duration shorter than one frame")
        buffer = JitterBuffer(target_delay=self.jitter_target)
        decode = DecodeState()
        arrivals: Dict[int, float] = {}
        source = self.codec.frames(self.bitrate)
        frames = [next(source) for _ in range(n_frames)]
        for frame in frames:
            delay = self._transmit_frame(frame.size_bytes)
            if delay is not None:
                arrival = frame.capture_time + delay
                arrivals[frame.index] = arrival
                buffer.push(frame.index, arrival)
        for frame in frames:
            decode.feed(frame, frame.index in arrivals)
        playout = buffer.playout_report(n_frames, self.codec.fps)
        encode_quality = self.codec.quality(self.bitrate)
        delivered_quality = encode_quality * decode.displayable_fraction
        mean_latency = playout.mean_latency
        if math.isinf(mean_latency):
            mean_latency = duration  # nothing played: saturate the metric
        overhead = (self.sent_bytes - self.source_bytes) / max(1, self.source_bytes)
        mos = VideoQoeModel().mos(
            quality=max(0.0, min(1.0, delivered_quality)),
            stall_ratio=playout.stall_ratio,
            latency_ms=mean_latency * 1e3,
        )
        return StreamReport(
            strategy=self.strategy,
            quality=delivered_quality,
            displayable_fraction=decode.displayable_fraction,
            stall_ratio=playout.stall_ratio,
            mean_latency_s=mean_latency,
            bandwidth_overhead=overhead,
            mos=mos,
        )
