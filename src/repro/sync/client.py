"""The client end of the sync protocol."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.avatar.interpolation import SnapshotBuffer
from repro.avatar.state import AvatarState
from repro.metrics.latency import LatencyTracker
from repro.sensing.pose import Pose
from repro.simkit.engine import Simulator
from repro.sync.protocol import ClientUpdate, ServerSnapshot


class SyncClient:
    """Publishes the local participant and replicates remote ones.

    ``transmit(update)`` is the app-supplied function that carries a
    :class:`ClientUpdate` to the server (through whatever network path the
    deployment wires up); incoming :class:`ServerSnapshot` messages arrive
    via :meth:`on_snapshot`.

    Remote entities are buffered in per-entity
    :class:`~repro.avatar.interpolation.SnapshotBuffer` instances; the
    render loop calls :meth:`remote_states` each frame.
    """

    def __init__(
        self,
        sim: Simulator,
        client_id: str,
        transmit: Callable[[ClientUpdate], None],
        update_rate_hz: float = 20.0,
        interpolation_delay: float = 0.1,
        epoch: int = 0,
    ):
        if update_rate_hz <= 0:
            raise ValueError("update rate must be positive")
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        self.sim = sim
        self.client_id = client_id
        self.transmit = transmit
        self.update_period = 1.0 / update_rate_hz
        self.interpolation_delay = interpolation_delay
        #: Session epoch stamped on every published state.  A rejoining
        #: client (fresh ``SyncClient`` with a reset seq counter for the
        #: same id) must pass a higher epoch than its previous session so
        #: servers do not drop its updates as stale (see
        #: :meth:`~repro.sync.delta.WorldState.apply`).
        self.epoch = epoch
        self._buffers: Dict[str, SnapshotBuffer] = {}
        self._input_seq = 0
        self._state_seq = 0
        self.local_pose: Optional[Callable[[float], Pose]] = None
        self.snapshots_received = 0
        self.snapshot_latency = LatencyTracker("snapshot_latency")
        self.bytes_received = 0

    # -- publishing --------------------------------------------------------

    def publish_once(self) -> ClientUpdate:
        """Send the local participant's current state."""
        if self.local_pose is None:
            raise RuntimeError("local_pose is not set")
        state = AvatarState(
            participant_id=self.client_id,
            time=self.sim.now,
            pose=self.local_pose(self.sim.now),
            seq=self._state_seq,
            epoch=self.epoch,
        )
        self._state_seq += 1
        update = ClientUpdate(
            client_id=self.client_id, state=state, input_seq=self._input_seq
        )
        self._input_seq += 1
        self.transmit(update)
        return update

    def run(self, duration: float):
        """A simkit process publishing at the configured rate."""

        def step():
            self.publish_once()
            return self.update_period

        return self.sim.every(duration, step)

    # -- receiving -----------------------------------------------------------

    def on_snapshot(self, snapshot: ServerSnapshot) -> None:
        """Network delivery callback for server snapshots."""
        self.snapshots_received += 1
        self.bytes_received += snapshot.size_bytes
        self.snapshot_latency.record(max(0.0, self.sim.now - snapshot.server_time))
        for state in snapshot.states:
            if state.participant_id == self.client_id:
                continue  # own echo: prediction handles the local avatar
            buffer = self._buffers.get(state.participant_id)
            if buffer is None:
                buffer = SnapshotBuffer(interpolation_delay=self.interpolation_delay)
                self._buffers[state.participant_id] = buffer
            buffer.push(state)
        for removed_id in snapshot.removed:
            self._buffers.pop(removed_id, None)

    # -- render-side queries -----------------------------------------------------

    @property
    def known_entities(self) -> list:
        return sorted(self._buffers)

    def latest_states(self) -> Dict[str, AvatarState]:
        """Newest received state per known remote entity (no interpolation).

        The raw replica view — what the convergence tests compare against
        the single-server oracle, independent of render-time smoothing.
        """
        result = {}
        for entity_id, buffer in self._buffers.items():
            state = buffer.latest
            if state is not None:
                result[entity_id] = state
        return result

    def remote_states(self, now: Optional[float] = None) -> Dict[str, AvatarState]:
        """Interpolated state of every known remote entity."""
        at = self.sim.now if now is None else now
        result = {}
        for entity_id, buffer in self._buffers.items():
            state = buffer.sample(at)
            if state is not None:
                result[entity_id] = state
        return result

    def staleness(self, entity_id: str) -> float:
        """Age of the newest data for ``entity_id`` (inf if unknown)."""
        buffer = self._buffers.get(entity_id)
        if buffer is None:
            return float("inf")
        return buffer.staleness(self.sim.now)
