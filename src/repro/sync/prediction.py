"""Client-side prediction with server reconciliation.

A participant must see their *own* avatar respond instantly — waiting a
round trip for the authoritative echo makes embodiment feel like molasses.
The standard fix: apply inputs locally at once, remember them, and when the
server's authoritative state arrives for an older input, replay the inputs
issued since.  If the replayed prediction and the local view diverge (loss,
server-side correction), the error is smoothed away over a short window
instead of snapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Optional
from collections import deque

import numpy as np


@dataclass(frozen=True)
class MoveInput:
    """One locomotion input: a velocity applied for a time slice."""

    seq: int
    velocity: np.ndarray
    dt: float


class PredictedAvatar:
    """The local participant's predicted position with reconciliation."""

    def __init__(
        self,
        initial_position: np.ndarray,
        smoothing_window_s: float = 0.2,
        max_history: int = 256,
    ):
        if smoothing_window_s < 0:
            raise ValueError("smoothing window must be >= 0")
        self.position = np.asarray(initial_position, dtype=float).copy()
        self.smoothing_window_s = float(smoothing_window_s)
        self._pending: Deque[MoveInput] = deque(maxlen=max_history)
        self._next_seq = 0
        self._correction = np.zeros(3)
        self.corrections_applied = 0

    def apply_input(self, velocity, dt: float) -> MoveInput:
        """Apply a local input immediately; returns it for transmission."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        move = MoveInput(
            seq=self._next_seq,
            velocity=np.asarray(velocity, dtype=float).copy(),
            dt=float(dt),
        )
        self._next_seq += 1
        self._pending.append(move)
        self.position = self.position + move.velocity * move.dt
        return move

    def reconcile(self, server_position, acked_seq: int) -> float:
        """Ingest the authoritative state for input ``acked_seq``.

        Replays every unacknowledged input on top of the server position;
        the difference from the current predicted position becomes a
        correction that :meth:`smoothed_position` bleeds off over the
        smoothing window.  Returns the magnitude of the correction.
        """
        while self._pending and self._pending[0].seq <= acked_seq:
            self._pending.popleft()
        replayed = np.asarray(server_position, dtype=float).copy()
        for move in self._pending:
            replayed = replayed + move.velocity * move.dt
        correction = replayed - self.position
        magnitude = float(np.linalg.norm(correction))
        if magnitude > 0:
            self.corrections_applied += 1
            # Fold the correction in authoritatively, but remember it so the
            # *displayed* position can interpolate instead of snapping.
            self.position = replayed
            self._correction = self._correction - correction
        return magnitude

    def smoothed_position(self, dt_since_reconcile: float) -> np.ndarray:  # replint: ignore[ARCH003] -- test observer of client-side prediction
        """Display position: authoritative minus the decaying correction."""
        if dt_since_reconcile < 0:
            raise ValueError("dt must be >= 0")
        if self.smoothing_window_s == 0:
            return self.position.copy()
        remaining = max(0.0, 1.0 - dt_since_reconcile / self.smoothing_window_s)
        return self.position + self._correction * remaining

    @property
    def unacked_inputs(self) -> int:  # replint: ignore[ARCH003] -- test observer of client-side prediction
        return len(self._pending)


def prediction_error_without_reconciliation(
    velocity: np.ndarray, rtt: float
) -> float:
    """The naive alternative's error: waiting a full RTT for the echo.

    A participant moving at ``velocity`` sees their own avatar lag by
    ``|velocity| * rtt`` — the delta client prediction removes entirely.
    """
    if rtt < 0:
        raise ValueError("rtt must be >= 0")
    return float(np.linalg.norm(np.asarray(velocity, dtype=float)) * rtt)
