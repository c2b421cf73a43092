"""Client migration and failover between sync servers.

Regional servers (C3b) imply users sometimes *move* between them — a
student travels, a server drains for maintenance, or the placement
rebalances.  Migration must be seamless: the client subscribes to the new
server before dropping the old one (make-before-break), and the new
server's delta encoder, having no state for the newcomer, naturally opens
with a full keyframe.  The measurable cost is the *blackout*: how long the
client went without fresh snapshots.

Failure is the involuntary version of the same move.  When a regional
server crashes (see :class:`~repro.net.faults.ServerCrashSchedule`) the
client cannot make-before-break — the old server is simply gone — so
:class:`FailoverController` watches snapshot freshness, declares the
server dead after ``detection_timeout`` of silence, and re-attaches the
client to the next standby.  The blackout then measures detection plus
handover, the end-to-end number the failover experiment (C3c) reports.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.simkit.engine import Simulator
from repro.sync.client import SyncClient
from repro.sync.protocol import ServerSnapshot
from repro.sync.server import SyncServer


class MigratableClient:
    """A sync client that can be handed between servers."""

    def __init__(
        self,
        sim: Simulator,
        client: SyncClient,
        old_server: SyncServer,
        old_path: Callable[[ServerSnapshot], None],
    ):
        """``old_path(snapshot)`` must carry the snapshot over the network
        and finally invoke :meth:`note_snapshot` at the client."""
        self.sim = sim
        self.client = client
        self.current_server = old_server
        self.last_snapshot_at: Optional[float] = None
        self.blackout_s: Optional[float] = None
        self.first_new_snapshot_was_full: Optional[bool] = None
        self.failovers = 0
        self._migrating_since: Optional[float] = None
        old_server.subscribe(client.client_id, old_path)

    def note_snapshot(self, snapshot: ServerSnapshot,
                      origin: Optional[str] = None) -> None:
        """Call from the client's delivery hook to track freshness.

        ``origin`` names the sending server; with make-before-break the old
        server's in-flight snapshots can still land after :meth:`migrate`,
        and only the *new* server's first snapshot ends the blackout.
        """
        if self._migrating_since is not None and (
            origin is None or origin == self.current_server.name
        ):
            self.blackout_s = self.sim.now - (
                self.last_snapshot_at
                if self.last_snapshot_at is not None
                else self._migrating_since
            )
            self.first_new_snapshot_was_full = snapshot.full
            self._migrating_since = None
        self.last_snapshot_at = self.sim.now
        self.client.on_snapshot(snapshot)

    def migrate(
        self,
        new_server: SyncServer,
        new_path: Callable[[ServerSnapshot], None],
    ) -> None:
        """Make-before-break handover to ``new_server``."""
        if new_server is self.current_server:
            raise ValueError("already on that server")
        self._migrating_since = self.sim.now
        new_server.subscribe(self.client.client_id, new_path)
        self.current_server.unsubscribe(self.client.client_id)
        self.current_server = new_server

    def failover(
        self,
        new_server: SyncServer,
        new_path: Callable[[ServerSnapshot], None],
    ) -> None:
        """Break-before-make re-attach after the current server failed.

        Unlike :meth:`migrate` the old server may be crashed (its
        subscriber table died with it) and ``new_server`` may be the *same*
        server after a restart — a restarted server has empty delta state,
        so the re-attach still opens with a keyframe.  The blackout clock
        keeps the timestamp of the first failover attempt, so repeated
        attempts measure one outage, not several.
        """
        if self._migrating_since is None:
            self._migrating_since = self.sim.now
        old_server = self.current_server
        if new_server is not old_server and not old_server.crashed:
            old_server.unsubscribe(self.client.client_id)
        new_server.subscribe(self.client.client_id, new_path)
        self.current_server = new_server
        self.failovers += 1


class FailoverController:
    """Client-side failure detector driving :meth:`MigratableClient.failover`.

    The only failure signal a client has is silence: no snapshot for longer
    than ``detection_timeout`` (plus the polling grain ``check_period``).
    When silence is declared the controller re-attaches the client to the
    next standby in its queue.  Standbys may be added at any time — e.g. a
    restarted primary re-queued by a :class:`~repro.net.faults.ServerCrashSchedule`
    ``on_restart`` hook.
    """

    def __init__(
        self,
        sim: Simulator,
        migratable: MigratableClient,
        detection_timeout: float = 0.5,
        check_period: float = 0.05,
    ):
        if detection_timeout <= 0 or check_period <= 0:
            raise ValueError("detection_timeout and check_period must be positive")
        self.sim = sim
        self.migratable = migratable
        self.detection_timeout = detection_timeout
        self.check_period = check_period
        self._standbys: List[Tuple[SyncServer, Callable[[ServerSnapshot], None]]] = []
        self.failover_times: List[float] = []
        self._last_action_at = sim.now

    def add_standby(
        self,
        server: SyncServer,
        path: Callable[[ServerSnapshot], None],
    ) -> None:
        """Append a standby ``(server, path)`` to the failover queue."""
        self._standbys.append((server, path))

    @property
    def standbys_remaining(self) -> int:
        return len(self._standbys)

    def _starved(self) -> bool:
        last = self.migratable.last_snapshot_at
        reference = max(
            last if last is not None else -float("inf"), self._last_action_at
        )
        return self.sim.now - reference > self.detection_timeout

    def _try_failover(self) -> bool:
        while self._standbys:
            server, path = self._standbys.pop(0)
            if server.crashed:
                continue  # standby died too; try the next one
            self.migratable.failover(server, path)
            self.failover_times.append(self.sim.now)
            self._last_action_at = self.sim.now
            return True
        return False

    def run(self, duration: float):
        """A simkit process polling freshness for ``duration`` seconds."""
        if duration <= 0:
            raise ValueError("duration must be positive")

        def check():
            if self._starved():
                self._try_failover()
            return self.check_period

        self._last_action_at = self.sim.now
        return self.sim.every(duration, check)
