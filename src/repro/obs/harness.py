"""An instrumented probe pipeline producing complete MTP traces.

:class:`MotionToPhotonHarness` wires the already-instrumented components
into the paper's full update path (Figure 3): headset capture → access
uplink → edge aggregation → WAN → regional sync server (tick wait,
interest + delta share) → downlink → device render → photon.  Every probe
pose sample opens one trace at capture and finishes its root at photon
time on the *partner* probe's display — motion-to-photon here is the
multi-user quantity: how stale is my movement by the time *you* see it.

Probes therefore come in pairs: the two partners stand within interest
radius of each other while pairs are placed far apart, so each snapshot
carries exactly the partner's state and every trace has exactly one
observer.  Stage spans are contiguous by construction (each hop starts
when the previous one ends), so a complete trace's stage decomposition
accounts for ~100% of its end-to-end latency — the ≥95% coverage the
C3b ``--trace`` benchmark asserts falls out rather than being fudged.

Per-probe WAN propagation comes from a ``{user_id: rtt_seconds}`` map —
feed it :attr:`~repro.cloud.regions.RegionalPlan.rtts` to trace the
regional-placement experiment's actual latency geography.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.avatar.state import AvatarState
from repro.net.link import Link
from repro.net.packet import Packet
from repro.obs.report import MotionToPhotonReport
from repro.render.display import DisplayModel
from repro.render.pipeline import DEVICE_PROFILES, RenderPipeline
from repro.sensing.headset import HeadsetTracker, PoseSample
from repro.sensing.pose import Pose
from repro.simkit.engine import Simulator
from repro.sync.protocol import ClientUpdate, ServerSnapshot
from repro.sync.server import SyncServer


@dataclass(frozen=True)
class MtpProbeConfig:
    """Shape of one traced probe pipeline.

    The defaults model a standalone headset on a good access network
    talking to a regional server: they put the end-to-end budget near the
    paper's 100 ms line so per-user WAN RTT decides which side of it each
    probe lands on.
    """

    sample_rate_hz: float = 15.0       # probe pose rate (< tick rate; see below)
    capture_latency_s: float = 0.004   # sensor exposure + on-device fusion
    access_delay_s: float = 0.008      # client <-> edge, one way
    access_rate_bps: float = 20e6
    edge_compute_s: float = 0.003      # edge-side aggregation share
    wan_rate_bps: float = 200e6
    jitter_std_s: float = 0.0005
    loss_rate: float = 0.0
    tick_rate_hz: float = 20.0
    triangles: int = 150_000
    device: str = "standalone_hmd"
    pair_spacing_m: float = 2.0        # partners inside interest radius
    group_spacing_m: float = 1000.0    # pairs far outside it

    def __post_init__(self):
        if self.sample_rate_hz <= 0 or self.tick_rate_hz <= 0:
            raise ValueError("rates must be positive")
        # A probe emitting faster than the server ticks would overwrite
        # its own traced update before the tick drains it, orphaning the
        # earlier trace; keep probes strictly slower than the tick.
        if self.sample_rate_hz > self.tick_rate_hz:
            raise ValueError(
                f"sample rate {self.sample_rate_hz} Hz must not exceed the "
                f"tick rate {self.tick_rate_hz} Hz")


class _Probe:
    """One traced user: tracker, links, render pipeline, partner wiring."""

    def __init__(self, harness: "MotionToPhotonHarness", user_id: str,
                 base: np.ndarray, rtt_s: float):
        sim = harness.sim
        config = harness.config
        self.user_id = user_id
        self.base = base
        self.uplink = Link(
            sim, config.access_rate_bps, config.access_delay_s,
            jitter_std=config.jitter_std_s, loss_rate=config.loss_rate,
            name=f"uplink:{user_id}")
        self.wan = Link(
            sim, config.wan_rate_bps, rtt_s / 2.0,
            jitter_std=config.jitter_std_s, loss_rate=config.loss_rate,
            name=f"wan:{user_id}")
        # Return path: server -> regional edge -> client in one hop.
        self.downlink = Link(
            sim, config.access_rate_bps, rtt_s / 2.0 + config.access_delay_s,
            jitter_std=config.jitter_std_s, loss_rate=config.loss_rate,
            name=f"downlink:{user_id}")
        self.pipeline = RenderPipeline(
            DEVICE_PROFILES[config.device], DisplayModel(), obs=sim.obs)
        self.tracker = HeadsetTracker(
            sim, user_id, self._truth, rate_hz=config.sample_rate_hz,
            trace_samples=True, capture_latency_s=config.capture_latency_s,
            on_sample=self._on_sample)
        self._harness = harness
        self._seq = 0

    def _truth(self, t: float) -> Pose:
        # A gentle orbit around the probe's seat: the pose changes every
        # sample, so the delta encoder always has fresh state to ship.
        offset = np.array(
            [0.25 * math.sin(t), 0.25 * math.cos(t), 0.0])
        return Pose(self.base + offset)

    # -- pipeline hops -------------------------------------------------------

    def _on_sample(self, sample: PoseSample) -> None:
        """Capture done -> uplink.  The capture span covers the sensor
        latency, so the uplink send waits until it elapses."""
        harness = self._harness
        sim = harness.sim
        state = AvatarState(
            participant_id=self.user_id, time=sample.time,
            pose=sample.pose, seq=sample.seq)
        update = ClientUpdate(
            client_id=self.user_id, state=state,
            input_seq=self._seq, ctx=sample.span)
        self._seq += 1
        if sample.span is not None:
            harness._t0[sample.span.trace_id] = sample.time
            harness.traces_started += 1
        packet = Packet(
            src=self.user_id, dst="edge", size_bytes=update.size_bytes,
            kind="pose", payload=update, created_at=sim.now,
            meta={"obs_ctx": sample.span, "obs_stage": "uplink"})
        sim.call_later(
            harness.config.capture_latency_s,
            lambda: self.uplink.send(packet, self._on_edge))

    def _on_edge(self, packet: Packet) -> None:
        """Edge aggregation: a modeled compute share, then the WAN hop."""
        harness = self._harness
        sim = harness.sim
        compute = harness.config.edge_compute_s
        ctx = packet.meta.get("obs_ctx")
        if sim.obs.enabled and ctx is not None:
            sim.obs.record_span(
                "edge_compute", "edge_compute", sim.now, sim.now + compute,
                parent=ctx, user=self.user_id)
        relay = Packet(
            src="edge", dst=harness.server.name,
            size_bytes=packet.size_bytes, kind=packet.kind,
            payload=packet.payload, created_at=sim.now,
            meta={"obs_ctx": ctx, "obs_stage": "wan"})
        sim.call_later(
            compute, lambda: self.wan.send(relay, self._on_server))

    def _on_server(self, packet: Packet) -> None:
        self._harness.server.ingest(packet.payload)

    def on_snapshot(self, snapshot: ServerSnapshot) -> None:
        """Subscriber callback: ship traced snapshots down to this probe.

        ``snapshot.trace`` carries ``(root span, ready_at)`` per traced
        entity; the downlink send is deferred to ``ready_at`` so the
        server's interest/delta compute share stays ahead of the wire.
        """
        if not snapshot.trace:
            return
        sim = self._harness.sim
        for entity_id, (ctx, ready_at) in snapshot.trace.items():
            if entity_id == self.user_id:
                continue  # one's own echo is not a displayed update
            if getattr(ctx, "end", None) is not None:
                continue  # another observer already reached photon
            packet = Packet(
                src=self._harness.server.name, dst=self.user_id,
                size_bytes=snapshot.size_bytes, kind="snapshot",
                payload=snapshot, created_at=sim.now,
                meta={"obs_ctx": ctx, "obs_stage": "downlink"})
            sim.call_later(
                max(0.0, ready_at - sim.now),
                lambda p=packet: self.downlink.send(p, self._on_photon))

    def _on_photon(self, packet: Packet) -> None:
        """Device-side tail: render the update and close the trace's root."""
        harness = self._harness
        sim = harness.sim
        root = packet.meta.get("obs_ctx")
        if root is None or root.end is not None:
            return  # untraced, or already photoned at another observer
        t0 = harness._t0.pop(root.trace_id, None)
        sample_age = sim.now - t0 if t0 is not None else 0.0
        mtp = self.pipeline.render_frame(
            harness.config.triangles, sample_age=max(0.0, sample_age),
            trace_parent=root)
        if mtp is None:
            root.finish(sim.now, frame_dropped=True)
        else:
            # Photon time: arrival + render + vsync (the pipeline already
            # recorded those two spans against this trace).
            root.finish(sim.now + (mtp - max(0.0, sample_age)),
                        observer=self.user_id)
        harness.traces_finished += 1


class MotionToPhotonHarness:
    """Paired traced probes around one regional sync server.

    ``rtts`` maps probe user ids to their WAN round-trip to the server;
    odd leftovers (an unpaired last user) are dropped since a lone probe
    has no observer.  Build, ``run(duration)``, then :meth:`report`.
    """

    def __init__(
        self,
        sim: Simulator,
        rtts: Mapping[str, float],
        config: MtpProbeConfig = MtpProbeConfig(),
        server: Optional[SyncServer] = None,
    ):
        if not sim.obs.enabled:
            raise ValueError(
                "harness needs span tracing: construct Simulator(obs=True)")
        self.sim = sim
        self.config = config
        self.server = server if server is not None else SyncServer(
            sim, name="regional", tick_rate_hz=config.tick_rate_hz)
        self.probes: List[_Probe] = []
        self._t0: Dict[int, float] = {}  # trace id -> capture time
        self.traces_started = 0
        self.traces_finished = 0

        users = list(rtts)
        users = users[: len(users) - len(users) % 2]  # whole pairs only
        for index, user_id in enumerate(users):
            pair, side = divmod(index, 2)
            # Pairs start at one group spacing, not zero: a subscriber whose
            # own state has not reached the server yet is queried from the
            # world origin, and a pair sitting there would be visible to
            # every such late joiner — giving one trace several observers.
            base = np.array([
                (pair + 1) * config.group_spacing_m,
                side * config.pair_spacing_m, 0.0])
            probe = _Probe(self, user_id, base, float(rtts[user_id]))
            self.probes.append(probe)
            self.server.subscribe(user_id, probe.on_snapshot)

    def run(self, duration: float, drain: float = 1.0) -> None:
        """Emit probe samples for ``duration``, then drain in-flight traces.

        The server keeps ticking through the drain window so updates
        captured near the end still reach their photon.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        start = self.sim.now
        for probe in self.probes:
            probe.tracker.run(duration)
        self.server.run(duration + drain)
        self.sim.run(until=start + duration + drain)

    def report(self, **kwargs) -> MotionToPhotonReport:
        """Per-stage attribution over everything traced so far."""
        return MotionToPhotonReport.from_tracer(self.sim.obs, **kwargs)
