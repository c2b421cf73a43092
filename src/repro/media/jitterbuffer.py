"""A playout jitter buffer."""

from __future__ import annotations

from typing import Dict, List, Optional


class JitterBuffer:
    """Schedules frame playout at a fixed delay behind the first arrival.

    ``push(frame_index, arrival_time)`` registers an arrival;
    ``playout_report(n_frames, fps)`` replays the schedule: frame ``i``
    should play at ``base + target_delay + i / fps``; if it hasn't arrived
    by then, playout *stalls* until it arrives (never-arrived frames are
    skipped after ``skip_after`` seconds of stall, like a real player).
    """

    def __init__(self, target_delay: float = 0.1, skip_after: float = 0.5):
        if target_delay < 0:
            raise ValueError("target delay must be >= 0")
        if skip_after <= 0:
            raise ValueError("skip_after must be positive")
        self.target_delay = float(target_delay)
        self.skip_after = float(skip_after)
        self._arrivals: Dict[int, float] = {}
        self._first_arrival: Optional[float] = None

    def push(self, frame_index: int, arrival_time: float) -> None:
        if frame_index in self._arrivals:
            self._arrivals[frame_index] = min(self._arrivals[frame_index], arrival_time)
        else:
            self._arrivals[frame_index] = arrival_time
        if self._first_arrival is None or arrival_time < self._first_arrival:
            self._first_arrival = arrival_time

    def arrived(self, frame_index: int) -> bool:
        return frame_index in self._arrivals

    def playout_report(self, n_frames: int, fps: float) -> "PlayoutReport":
        """Replay the playout schedule over frames [0, n_frames)."""
        if n_frames < 1:
            raise ValueError("need at least one frame")
        if fps <= 0:
            raise ValueError("fps must be positive")
        if self._first_arrival is None:
            return PlayoutReport(n_frames, fps, 0, n_frames, n_frames / fps, [])
        clock = self._first_arrival + self.target_delay
        period = 1.0 / fps
        stall_total = 0.0
        played, skipped = 0, 0
        latencies: List[float] = []
        for index in range(n_frames):
            due = clock
            arrival = self._arrivals.get(index)
            if arrival is None:
                skipped += 1
                stall_total += self.skip_after
                clock = due + self.skip_after
                continue
            if arrival > due:
                stall = min(arrival - due, self.skip_after)
                if arrival - due > self.skip_after:
                    skipped += 1
                    stall_total += self.skip_after
                    clock = due + self.skip_after
                    continue
                stall_total += stall
                clock = arrival
            played += 1
            latencies.append(clock - (index * period))
            clock += period
        return PlayoutReport(n_frames, fps, played, skipped, stall_total, latencies)


class PlayoutReport:
    """Outcome of replaying a jitter-buffer schedule."""

    def __init__(self, total, fps, played, skipped, stall_total, latencies):
        self.total = total
        self.fps = fps
        self.played = played
        self.skipped = skipped
        self.stall_total = stall_total
        self.latencies = latencies

    @property
    def stall_ratio(self) -> float:
        """Stall time as a fraction of nominal playback duration, capped at 1."""
        duration = self.total / self.fps
        return min(1.0, self.stall_total / max(1e-9, duration))

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return float("inf")
        return sum(self.latencies) / len(self.latencies)
