"""Course artifacts: slide decks and whiteboard strokes.

Section 3.3 names "digital artefacts (e.g., slides)" and "whiteboard"
among what must be transmitted in real time.  Slides are occasional bulky
reliable transfers; whiteboard strokes are a trickle of tiny latency-
sensitive messages — opposite corners of the traffic matrix.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.metrics.latency import LatencyTracker
from repro.simkit.engine import Simulator


class SlideDeckStream:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """Slide flips sent as whole-slide transfers.

    ``send(size, on_done)`` is the transport hook (usually a reliable
    channel); flip latency is measured from the instructor's flip to the
    last byte landing at the audience.
    """

    def __init__(
        self,
        sim: Simulator,
        send: Callable[[int, Callable[[], None]], None],
        slide_bytes: int = 200_000,
        flips_per_min: float = 1.5,
        name: str = "slides",
    ):
        if slide_bytes <= 0:
            raise ValueError("slide size must be positive")
        if flips_per_min <= 0:
            raise ValueError("flip rate must be positive")
        self.sim = sim
        self.send = send
        self.slide_bytes = int(slide_bytes)
        self.flips_per_min = float(flips_per_min)
        self._rng = sim.rng.stream(f"slides:{name}")
        self.flip_latency = LatencyTracker("slide_flip")
        self.flips = 0

    def flip_once(self) -> None:
        started = self.sim.now
        self.flips += 1
        self.send(self.slide_bytes, lambda: self.flip_latency.record(self.sim.now - started))

    def run(self, duration: float):
        """A simkit process flipping slides at Poisson intervals."""

        def body():
            end = self.sim.now + duration
            while True:
                gap = float(self._rng.exponential(60.0 / self.flips_per_min))
                if self.sim.now + gap >= end:
                    break
                yield self.sim.timeout(gap)
                self.flip_once()

        return self.sim.process(body())


class WhiteboardStream:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """Tiny, frequent stroke updates with per-stroke latency tracking."""

    def __init__(
        self,
        sim: Simulator,
        send: Callable[[int, Callable[[], None]], None],
        stroke_bytes: int = 200,
        strokes_per_min: float = 30.0,
        name: str = "whiteboard",
    ):
        if stroke_bytes <= 0:
            raise ValueError("stroke size must be positive")
        if strokes_per_min <= 0:
            raise ValueError("stroke rate must be positive")
        self.sim = sim
        self.send = send
        self.stroke_bytes = int(stroke_bytes)
        self.strokes_per_min = float(strokes_per_min)
        self._rng = sim.rng.stream(f"whiteboard:{name}")
        self.stroke_latency = LatencyTracker("stroke")
        self.strokes = 0

    def run(self, duration: float):
        def body():
            end = self.sim.now + duration
            while True:
                gap = float(self._rng.exponential(60.0 / self.strokes_per_min))
                if self.sim.now + gap >= end:
                    break
                yield self.sim.timeout(gap)
                started = self.sim.now
                self.strokes += 1
                self.send(
                    self.stroke_bytes,
                    lambda started=started: self.stroke_latency.record(
                        self.sim.now - started
                    ),
                )

        return self.sim.process(body())
