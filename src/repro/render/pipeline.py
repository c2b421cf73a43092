"""Device render pipelines and motion-to-photon accounting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.metrics.latency import LatencyTracker
from repro.render.display import DisplayModel


@dataclass(frozen=True)
class DeviceProfile:
    """Throughput of a rendering device."""

    name: str
    triangles_per_second: float   # sustained rasterization throughput
    base_frame_cost_s: float      # fixed per-frame CPU/GPU overhead

    def frame_time(self, triangles: int) -> float:
        """Seconds to render a frame of ``triangles``."""
        if triangles < 0:
            raise ValueError("triangles must be >= 0")
        return self.base_frame_cost_s + triangles / self.triangles_per_second


#: The device classes the paper's deployment spans: lightweight standalone
#: MR/VR headsets, tethered PC VR, and phone/web (WebGL) clients.
DEVICE_PROFILES: Dict[str, DeviceProfile] = {
    "standalone_hmd": DeviceProfile("standalone_hmd", 120e6, 0.003),
    "pc_vr": DeviceProfile("pc_vr", 1.2e9, 0.001),
    "webgl_phone": DeviceProfile("webgl_phone", 40e6, 0.006),
    "edge_gpu": DeviceProfile("edge_gpu", 3.0e9, 0.0008),
    "cloud_gpu": DeviceProfile("cloud_gpu", 6.0e9, 0.0005),
}


class RenderPipeline:
    """Frame loop of one device: render, wait for vsync, display.

    ``render_frame(triangles, sample_age)`` accounts one frame and returns
    its motion-to-photon latency: the age of the pose sample driving the
    frame, plus render time, plus the vsync wait.  Frames that miss the
    refresh window are counted as dropped (the previous frame persists).
    """

    def __init__(self, device: DeviceProfile, display: DisplayModel = DisplayModel(),
                 obs=None):
        self.device = device
        self.display = display
        self.obs = obs  # optional SpanTracer; spans stamped by its clock
        self.motion_to_photon = LatencyTracker("motion_to_photon")
        self.frames_rendered = 0
        self.frames_dropped = 0
        self._clock = 0.0

    def render_frame(self, triangles: int, sample_age: float = 0.0,
                     trace_parent=None) -> Optional[float]:
        """Account one frame; returns its motion-to-photon time or None.

        None means the frame missed its refresh window (render time beyond
        one display period) and was dropped.

        With a span tracer attached and ``trace_parent`` given, the frame
        records ``render`` and ``vsync`` child spans — the device-side
        tail of a traced pose update's motion-to-photon budget.  Dropped
        frames record a zero-length ``render`` span flagged ``dropped``.
        """
        if sample_age < 0:
            raise ValueError("sample age must be >= 0")
        traced = (self.obs is not None and self.obs.enabled
                  and trace_parent is not None)
        render_time = self.device.frame_time(triangles)
        if render_time > self.display.frame_period:
            self.frames_dropped += 1
            self._clock += render_time
            if traced:
                now = self.obs.now()
                self.obs.record_span("render", "render", now, now,
                                     parent=trace_parent, triangles=triangles,
                                     dropped=True)
            return None
        ready = self._clock + render_time
        vsync_wait = self.display.vsync_wait(ready)
        mtp = sample_age + render_time + vsync_wait
        self.motion_to_photon.record(mtp)
        self.frames_rendered += 1
        self._clock = ready + vsync_wait
        if traced:
            now = self.obs.now()
            self.obs.record_span("render", "render", now, now + render_time,
                                 parent=trace_parent, triangles=triangles,
                                 device=self.device.name)
            self.obs.record_span("vsync", "vsync", now + render_time,
                                 now + render_time + vsync_wait,
                                 parent=trace_parent)
        return mtp

    def max_triangles_at_refresh(self) -> int:
        """Largest scene this device sustains at full refresh rate."""
        headroom = self.display.frame_period - self.device.base_frame_cost_s
        if headroom <= 0:
            return 0
        return int(headroom * self.device.triangles_per_second)
