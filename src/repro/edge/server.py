"""The per-classroom edge server: Figure 3's central box."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.avatar.interpolation import SnapshotBuffer
from repro.avatar.retarget import SeatTransform, retarget_state
from repro.avatar.state import AvatarState
from repro.edge.aggregator import SensorAggregator
from repro.edge.seats import (
    Seat,
    SeatMap,
    assign_seats_first_fit,
    assign_seats_hungarian,
    seat_transform_for,
)
from repro.metrics.latency import StageBudget
from repro.simkit.engine import Simulator


@dataclass(frozen=True)
class EdgeConfig:
    """Tuning of one edge server."""

    avatar_rate_hz: float = 20.0
    per_avatar_cost_s: float = 0.0004   # fusion + generation compute
    interpolation_delay_s: float = 0.1
    seat_policy: str = "hungarian"      # or "first_fit"
    #: Open one observability trace per generated avatar state (requires
    #: the simulator's span tracer to be enabled; see repro.obs).
    trace_avatars: bool = False

    def __post_init__(self):
        if self.avatar_rate_hz <= 0:
            raise ValueError("avatar rate must be positive")
        if self.per_avatar_cost_s < 0:
            raise ValueError("per-avatar cost must be >= 0")
        if self.seat_policy not in ("hungarian", "first_fit"):
            raise ValueError(f"unknown seat policy: {self.seat_policy!r}")


class EdgeServer:
    """Aggregation, avatar generation, replication, and seat placement.

    Outbound: a periodic *avatar tick* fuses all tracked local
    participants, then ships each :class:`AvatarState` to every registered
    peer via its send callback (`send(state)` — the deployment wires this
    through the network).

    Inbound: :meth:`receive_remote_state` accepts a peer's avatar state,
    assigns the participant a vacant seat on first sight (Hungarian batch
    matching of everyone not yet seated), retargets the pose into that
    seat with gaze correction towards ``attention_target``, and buffers it
    for the MR scene.  :meth:`scene_states` is what the classroom's
    headsets render.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        seat_map: SeatMap,
        config: EdgeConfig = EdgeConfig(),
        attention_target: Optional[np.ndarray] = None,
        source_seat_yaw: float = np.pi / 2,
    ):
        self.sim = sim
        self.name = name
        self.seat_map = seat_map
        self.config = config
        self.attention_target = attention_target
        self.source_seat_yaw = source_seat_yaw
        self.aggregator = SensorAggregator(sim)
        self.budget = StageBudget()
        self._peers: Dict[str, Callable[[AvatarState], None]] = {}
        self._buffers: Dict[str, SnapshotBuffer] = {}
        self._transforms: Dict[str, SeatTransform] = {}
        self._pending: Dict[str, np.ndarray] = {}
        self._anchors: Dict[str, np.ndarray] = {}
        self.states_sent = 0
        self.states_received = 0
        self._running = False

    # -- peering ------------------------------------------------------------

    def add_peer(self, peer_name: str, send: Callable[[AvatarState], None]) -> None:
        """Register a replication target (the other campus, the cloud)."""
        if peer_name in self._peers:
            raise ValueError(f"peer already registered: {peer_name!r}")
        self._peers[peer_name] = send

    @property
    def peers(self) -> List[str]:
        return sorted(self._peers)

    # -- outbound: the avatar tick ----------------------------------------------

    def _avatar_tick(self) -> float:
        """Generate and replicate all local avatars; returns compute cost."""
        states = self.aggregator.generate_all()
        cost = self.config.per_avatar_cost_s * len(states)
        obs = self.sim.obs
        trace = obs.enabled and self.config.trace_avatars
        for state in states.values():
            self.budget.record("edge_generate", self.config.per_avatar_cost_s)
            if trace:
                root = obs.start_trace(
                    "avatar", stage="mtp",
                    participant=state.participant_id, edge=self.name)
                obs.record_span(
                    "edge_generate", "edge_compute", self.sim.now,
                    self.sim.now + self.config.per_avatar_cost_s, parent=root)
                state.meta["obs_ctx"] = root
            for send in self._peers.values():
                send(state.copy())
                self.states_sent += 1
        return cost

    def run(self, duration: float):
        """The avatar tick process."""
        if self._running:
            raise RuntimeError("edge server already running")
        self._running = True
        period = 1.0 / self.config.avatar_rate_hz

        def close(_process):
            self._running = False

        process = self.sim.every(
            duration, lambda: max(period, self._avatar_tick()))
        process.callbacks.append(close)
        return process

    # -- inbound: placement and retargeting ----------------------------------

    def receive_remote_state(self, state: AvatarState, source_anchor) -> None:
        """Network delivery callback for a peer's avatar state.

        ``source_anchor`` is the participant's seat anchor in the source
        classroom (shipped once with the stream's metadata in a real
        system; passed per call here for simplicity).
        """
        self.states_received += 1
        inter_site = max(0.0, self.sim.now - state.time)
        self.budget.record("inter_site", inter_site)
        obs = self.sim.obs
        if obs.enabled:
            ctx = state.meta.get("obs_ctx")
            if ctx is not None:
                # The replicated state becomes displayable one
                # interpolation delay after ingest; that wait closes its
                # trace (the origin edge left the root span open).
                displayable = self.sim.now + self.config.interpolation_delay_s
                obs.record_span(
                    "interp_wait", "interp_wait", self.sim.now, displayable,
                    parent=ctx, edge=self.name, inter_site_s=inter_site)
                if hasattr(ctx, "finish"):
                    ctx.finish(displayable)
        pid = state.participant_id
        self._anchors[pid] = np.asarray(source_anchor, dtype=float)
        if pid not in self._transforms:
            self._pending[pid] = self._anchors[pid]
            self._place_pending()
        transform = self._transforms.get(pid)
        if transform is None:
            return  # no seat available: the avatar stays invisible
        retargeted = retarget_state(state, transform, self.attention_target)
        buffer = self._buffers.get(pid)
        if buffer is None:
            buffer = SnapshotBuffer(
                interpolation_delay=self.config.interpolation_delay_s
            )
            self._buffers[pid] = buffer
        buffer.push(retargeted)

    def _place_pending(self) -> None:
        vacant = self.seat_map.vacant_seats()
        if not self._pending or not vacant:
            return
        placeable = dict(list(self._pending.items())[: len(vacant)])
        if self.config.seat_policy == "hungarian":
            assignment = assign_seats_hungarian(placeable, vacant)
        else:
            assignment = assign_seats_first_fit(placeable, vacant)
        for pid, seat in assignment.items():
            self.seat_map.occupy(seat.seat_id, pid)
            self._transforms[pid] = seat_transform_for(
                self._pending.pop(pid), seat, self.source_seat_yaw
            )

    def seat_of(self, participant_id: str) -> Optional[Seat]:  # replint: ignore[ARCH003] -- test observer of seat placement
        transform = self._transforms.get(participant_id)
        if transform is None:
            return None
        for seat in self.seat_map.seats.values():
            if self.seat_map.occupant(seat.seat_id) == participant_id:
                return seat
        return None

    # -- the MR scene ----------------------------------------------------------

    @property
    def displayed_avatars(self) -> List[str]:
        return sorted(self._buffers)

    def scene_states(self, now: Optional[float] = None) -> Dict[str, AvatarState]:  # replint: ignore[ARCH003] -- test observer of the MR scene
        """Interpolated remote avatar states for the MR display."""
        at = self.sim.now if now is None else now
        scene = {}
        for pid, buffer in self._buffers.items():
            state = buffer.sample(at)
            if state is not None:
                scene[pid] = state
        return scene

    def staleness(self, participant_id: str) -> float:
        buffer = self._buffers.get(participant_id)
        if buffer is None:
            return float("inf")
        return buffer.staleness(self.sim.now)
