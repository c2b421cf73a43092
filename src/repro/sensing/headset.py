"""The MR/VR headset's on-board tracker."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

import numpy as np

from repro.sensing.pose import Pose, quat_from_axis_angle, quat_multiply
from repro.simkit.engine import Simulator


@dataclass(frozen=True)
class PoseSample:
    """One tracker output.

    ``span`` is the root observability span of this sample's trace when
    the tracker runs with ``trace_samples=True`` (see
    :mod:`repro.obs.span`); downstream stages parent their spans to it
    and whoever displays the pose finishes it at photon time.
    """

    time: float
    device_id: str
    pose: Pose
    seq: int
    source: str = "headset"
    span: Optional[Any] = None


class HeadsetTracker:
    """Samples a ground-truth motion trace like an inside-out HMD tracker.

    Measurement model per sample:

    * zero-mean Gaussian position noise (``position_noise_m``, per axis);
    * orientation noise of Gaussian magnitude around a random axis;
    * a slowly random-walking position bias (tracking drift) that real
      inside-out trackers accumulate between relocalizations;
    * sample dropout with probability ``dropout``.

    ``truth`` is a callable ``t -> Pose`` (usually a
    :class:`~repro.workload.traces.MotionTrace`).
    """

    def __init__(
        self,
        sim: Simulator,
        device_id: str,
        truth: Callable[[float], Pose],
        rate_hz: float = 72.0,
        position_noise_m: float = 0.002,
        orientation_noise_rad: float = 0.005,
        drift_rate_m_per_sqrt_s: float = 0.0005,
        dropout: float = 0.0,
        on_sample: Optional[Callable[[PoseSample], None]] = None,
        trace_samples: bool = False,
        capture_latency_s: float = 0.004,
    ):
        if rate_hz <= 0:
            raise ValueError("rate must be positive")
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"dropout must be in [0,1), got {dropout}")
        if capture_latency_s < 0:
            raise ValueError("capture latency must be >= 0")
        self.sim = sim
        self.device_id = device_id
        self.truth = truth
        self.rate_hz = float(rate_hz)
        self.position_noise_m = float(position_noise_m)
        self.orientation_noise_rad = float(orientation_noise_rad)
        self.drift_rate = float(drift_rate_m_per_sqrt_s)
        self.dropout = float(dropout)
        self.on_sample = on_sample
        # When True and the simulator has span tracing enabled, every
        # emitted sample opens a fresh trace whose ``capture`` stage spans
        # the modeled sensor exposure + on-device fusion time.
        self.trace_samples = bool(trace_samples)
        self.capture_latency_s = float(capture_latency_s)
        self._rng = sim.rng.stream(f"headset:{device_id}")
        self._bias = np.zeros(3)
        self._seq = 0
        self.samples_emitted = 0
        self.samples_dropped = 0

    @property
    def period(self) -> float:
        return 1.0 / self.rate_hz

    def measure(self) -> Optional[PoseSample]:
        """Take one measurement now; None if the sample dropped out."""
        # Drift follows a random walk: step std scales with sqrt(period).
        step_std = self.drift_rate * np.sqrt(self.period)
        self._bias += self._rng.normal(0.0, step_std, size=3)
        if self.dropout > 0.0 and self._rng.random() < self.dropout:
            self.samples_dropped += 1
            return None
        true_pose = self.truth(self.sim.now)
        noisy_position = (
            true_pose.position
            + self._bias
            + self._rng.normal(0.0, self.position_noise_m, size=3)
        )
        axis = self._rng.normal(size=3)
        angle = float(self._rng.normal(0.0, self.orientation_noise_rad))
        noise_quat = quat_from_axis_angle(axis, angle)
        noisy_orientation = quat_multiply(noise_quat, true_pose.orientation)
        sample = PoseSample(
            time=self.sim.now,
            device_id=self.device_id,
            pose=Pose(noisy_position, noisy_orientation),
            seq=self._seq,
        )
        obs = self.sim.obs
        if self.trace_samples and obs.enabled:
            root = obs.start_trace(
                "mtp", stage="mtp", device=self.device_id, seq=self._seq)
            obs.record_span(
                "capture", "capture", self.sim.now,
                self.sim.now + self.capture_latency_s, parent=root)
            sample = replace(sample, span=root)
        self._seq += 1
        self.samples_emitted += 1
        return sample

    def run(self, duration: float):
        """A simkit process emitting samples at the configured rate."""

        def step():
            sample = self.measure()
            if sample is not None and self.on_sample is not None:
                self.on_sample(sample)
            return self.period

        return self.sim.every(duration, step)
