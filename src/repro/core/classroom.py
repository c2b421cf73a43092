"""The physical MR classroom: sensing rig + WiFi + edge server."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.participant import Participant
from repro.edge.seats import Seat, SeatMap
from repro.edge.server import EdgeConfig, EdgeServer
from repro.metrics.latency import StageBudget
from repro.net.packet import Packet
from repro.net.wifi import WifiNetwork
from repro.sensing.expression import ExpressionCapture
from repro.sensing.headset import HeadsetTracker, PoseSample
from repro.sensing.sensor import RoomSensorArray
from repro.simkit.engine import Simulator
from repro.workload.traces import MotionTrace, SeatedMotion

#: Serialized size of one pose sample on the WiFi uplink (pose + header).
POSE_SAMPLE_BYTES = 64
WIRED_SENSOR_DELAY = 0.001


@dataclass
class _LocalAttendee:
    participant: Participant
    seat: Seat
    trace: MotionTrace
    tracker: HeadsetTracker


class PhysicalClassroom:
    """One campus's MR classroom (a box of Figure 3).

    Local participants are seated, tracked by their headsets (over the
    shared WiFi cell) and by the room's sensor array (over a wired link);
    both streams land in the edge server's aggregator.  The edge replicates
    the fused avatars to whatever peers the deployment wires up.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rows: int = 5,
        cols: int = 6,
        wifi_rate_bps: float = 300e6,
        edge_config: EdgeConfig = EdgeConfig(),
        headset_rate_hz: float = 60.0,
        expression_rate_hz: float = 2.0,
    ):
        self.sim = sim
        self.name = name
        self.seat_map = SeatMap.grid(rows=rows, cols=cols)
        front = np.array([
            2.0 + (cols - 1) * 1.2 / 2.0,  # centre of the room, at the board
            0.0,
            0.0,
        ])
        self.podium = front
        self.edge = EdgeServer(
            sim, name, self.seat_map, config=edge_config, attention_target=front
        )
        self.wifi = WifiNetwork(sim, rate_bps=wifi_rate_bps, contenders=1,
                                name=f"wifi:{name}")
        self.sensors = RoomSensorArray(
            sim, name=f"rig:{name}", on_sample=self._wired_ingest
        )
        self.headset_rate_hz = headset_rate_hz
        self.expression_rate_hz = expression_rate_hz
        self.uplink_budget = StageBudget()
        self._attendees: Dict[str, _LocalAttendee] = {}

    # -- membership --------------------------------------------------------

    def add_participant(self, participant: Participant) -> Seat:
        """Seat a local participant and set up their sensing."""
        if participant.campus != self.name:
            raise ValueError(
                f"{participant.participant_id} belongs to campus "
                f"{participant.campus!r}, not {self.name!r}"
            )
        if participant.participant_id in self._attendees:
            raise ValueError(f"already seated: {participant.participant_id!r}")
        vacant = self.seat_map.vacant_seats()
        if not vacant:
            raise RuntimeError(f"classroom {self.name!r} is full")
        seat = vacant[0]
        self.seat_map.occupy(seat.seat_id, participant.participant_id)
        anchor = seat.position + np.array([0.0, 0.0, 1.2])  # seated head height
        trace = SeatedMotion(
            anchor,
            self.sim.rng.stream(f"motion:{self.name}:{participant.participant_id}"),
            facing_yaw=seat.facing_yaw,
        )
        tracker = HeadsetTracker(
            self.sim,
            participant.participant_id,
            trace,
            rate_hz=self.headset_rate_hz,
            on_sample=self._uplink_pose,
        )
        self.wifi.contenders = max(1, len(self._attendees) + 1)
        self._attendees[participant.participant_id] = _LocalAttendee(
            participant=participant, seat=seat, trace=trace, tracker=tracker
        )
        return seat

    @property
    def participants(self) -> List[str]:
        return sorted(self._attendees)

    def seat_anchor(self, participant_id: str) -> np.ndarray:
        """The seat position used as the replication anchor."""
        return self._attendees[participant_id].seat.position

    def trace_of(self, participant_id: str) -> MotionTrace:  # replint: ignore[ARCH003] -- test observer of a participant's motion trace
        return self._attendees[participant_id].trace

    # -- sensing pipelines ---------------------------------------------------

    def _uplink_pose(self, sample: PoseSample) -> None:
        """Headset sample -> WiFi -> edge aggregator."""
        packet = Packet(
            src=sample.device_id, dst=self.edge.name,
            size_bytes=POSE_SAMPLE_BYTES, kind="pose", payload=sample,
            created_at=self.sim.now,
        )
        sent_at = self.sim.now

        def deliver(packet):
            self.uplink_budget.record("wifi_uplink", self.sim.now - sent_at)
            self.edge.aggregator.ingest_pose(packet.payload)

        self.wifi.send(packet, deliver)

    def _run_expressions(self, participant_id: str, duration: float):
        capture = ExpressionCapture(
            self.sim.rng.stream(f"expr:{self.name}:{participant_id}")
        )
        labels = ("neutral", "talking", "smile", "neutral", "confused")
        rng = self.sim.rng.stream(f"exprpick:{self.name}:{participant_id}")

        period = 1.0 / self.expression_rate_hz

        def step():
            label = labels[int(rng.integers(0, len(labels)))]
            state = capture.capture(self.sim.now, label)
            packet = Packet(
                src=participant_id, dst=self.edge.name,
                size_bytes=state.size_bytes + 32, kind="expression",
                payload=state, created_at=self.sim.now,
            )
            self.wifi.send(
                packet,
                lambda p, pid=participant_id: self.edge.aggregator.ingest_expression(
                    pid, p.payload
                ),
            )
            return period

        return self.sim.every(duration, step)

    def _wired_ingest(self, sample: PoseSample) -> None:
        """Sensor-rig fix -> wired link -> edge aggregator."""
        self.sim.call_later(
            WIRED_SENSOR_DELAY,
            lambda: self.edge.aggregator.ingest_pose(sample),
        )

    def _run_room_sensors(self, participant_id: str, duration: float):
        trace = self._attendees[participant_id].trace
        return self.sensors.run(participant_id, trace, duration)

    # -- lifecycle ------------------------------------------------------------

    def start(self, duration: float) -> None:
        """Launch all sensing processes and the edge's avatar tick."""
        for participant_id, attendee in self._attendees.items():
            attendee.tracker.run(duration)
            self._run_room_sensors(participant_id, duration)
            self._run_expressions(participant_id, duration)
        self.edge.run(duration)
