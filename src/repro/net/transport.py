"""Reliable transport over path channels.

Pose updates go straight onto a channel, unacknowledged: a late pose
update is worthless.  Traffic that must arrive uses the reliable
channel, a miniature ARQ with Jacobson/Karels RTO estimation and
in-order delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set

from repro.net.packet import Packet
from repro.simkit.engine import Simulator


@dataclass
class _Outstanding:
    packet: Packet
    sent_at: float
    retries: int = 0


class ReliableChannel:
    """Stop-and-go ARQ with per-packet retransmission and in-order delivery.

    Every data packet is acknowledged over the reverse channel.  The
    retransmission timeout follows the classic SRTT/RTTVAR estimator
    (``RTO = SRTT + 4 * RTTVAR``) with exponential backoff, and delivery to
    the application callback is strictly in sequence-number order.

    A packet that exhausts ``max_retries`` is *declared dead* rather than
    silently abandoned: the application hears about it through ``on_fail``
    and the receiver is told to skip the gap so in-order delivery resumes
    past the dead sequence number (otherwise one permanently-lost packet
    would trap every later packet in the reorder buffer forever).  The skip
    notice travels both as a dedicated control packet (retried with the
    same bounded backoff) and piggybacked on every subsequent data
    transmission, so it survives the loss conditions that killed the
    original packet.  Receiver-side skips are counted in ``skipped``; acks
    carry the receiver's cumulative next-expected sequence so the sender
    can prune its dead-set once the receiver has moved past it.
    """

    ACK_SIZE = 40
    SKIP_SIZE = 48

    def __init__(
        self,
        sim: Simulator,
        forward_channel,
        reverse_channel,
        src: str,
        dst: str,
        on_deliver: Callable[[Any], None],
        initial_rto: float = 0.2,
        max_retries: int = 10,
        on_fail: Optional[Callable[[Any, int], None]] = None,
    ):
        self.sim = sim
        self.forward = forward_channel
        self.reverse = reverse_channel
        self.src = src
        self.dst = dst
        self.on_deliver = on_deliver
        self.on_fail = on_fail
        self.max_retries = max_retries
        self._next_seq = 0
        self._expected_seq = 0
        self._reorder: Dict[int, Any] = {}
        self._outstanding: Dict[int, _Outstanding] = {}
        self._dead: Set[int] = set()
        self._dead_received: Set[int] = set()
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._rto = initial_rto
        self.retransmissions = 0
        self.delivered = 0
        self.failed = 0
        self.skipped = 0
        self.skip_sends = 0

    @property
    def rto(self) -> float:
        return self._rto

    @property
    def dead_pending(self) -> int:
        """Dead sequences the receiver has not yet confirmed skipping."""
        return len(self._dead)

    def send(self, payload: Any, size_bytes: int, kind: str = "reliable",
             ctx: Any = None, stage: str = "net") -> int:
        """Queue ``payload`` for reliable delivery; returns its sequence no.

        With a span ``ctx``, every wire attempt (the original transmission
        and each ARQ retry) shows up as a link-transit child span, and
        retries/declared-dead packets additionally record ``arq_retry`` /
        ``arq_dead`` marker spans.
        """
        seq = self._next_seq
        self._next_seq += 1
        packet = Packet(
            src=self.src,
            dst=self.dst,
            size_bytes=size_bytes,
            kind=kind,
            payload=payload,
            created_at=self.sim.now,
        )
        packet.meta["seq"] = seq
        if ctx is not None:
            packet.meta["obs_ctx"] = ctx
            packet.meta["obs_stage"] = stage
        self._transmit(seq, packet)
        return seq

    # -- sender internals ----------------------------------------------------

    def _transmit(self, seq: int, packet: Packet) -> None:
        entry = self._outstanding.get(seq)
        if entry is None:
            entry = _Outstanding(packet=packet, sent_at=self.sim.now)
            self._outstanding[seq] = entry
        else:
            entry.sent_at = self.sim.now
        wire_packet = packet.clone()
        wire_packet.meta["seq"] = seq
        if self._dead:
            wire_packet.meta["dead"] = tuple(sorted(self._dead))
        self.forward.send(wire_packet, self._on_receiver_side)
        rto = self._rto * (2 ** entry.retries)
        self.sim.call_later(rto, lambda: self._check_timeout(seq))

    def _check_timeout(self, seq: int) -> None:
        entry = self._outstanding.get(seq)
        if entry is None:
            return  # acked in the meantime
        entry.retries += 1
        if entry.retries > self.max_retries:
            self._declare_failed(seq, entry)
            return
        self.retransmissions += 1
        obs = self.sim.obs
        if obs.enabled:
            ctx = entry.packet.meta.get("obs_ctx")
            if ctx is not None:
                now = self.sim.now
                obs.record_span(
                    "arq_retry", entry.packet.meta.get("obs_stage", "net"),
                    entry.sent_at, now, parent=ctx,
                    seq=seq, retry=entry.retries)
        self._transmit(seq, entry.packet)

    def _declare_failed(self, seq: int, entry: _Outstanding) -> None:
        del self._outstanding[seq]
        self.failed += 1
        self._dead.add(seq)
        obs = self.sim.obs
        if obs.enabled:
            ctx = entry.packet.meta.get("obs_ctx")
            if ctx is not None:
                now = self.sim.now
                obs.record_span(
                    "arq_dead", entry.packet.meta.get("obs_stage", "net"),
                    now, now, parent=ctx, seq=seq, retries=entry.retries)
        if self.on_fail is not None:
            self.on_fail(entry.packet.payload, seq)
        self._send_skip(attempt=0)

    def _send_skip(self, attempt: int) -> None:
        """Tell the receiver to advance past the declared-dead sequences."""
        if not self._dead:
            return
        packet = Packet(
            src=self.src,
            dst=self.dst,
            size_bytes=self.SKIP_SIZE,
            kind="rel_skip",
            created_at=self.sim.now,
        )
        packet.meta["dead"] = tuple(sorted(self._dead))
        self.skip_sends += 1
        self.forward.send(packet, self._on_receiver_side)
        if attempt < self.max_retries:
            delay = self._rto * (2 ** attempt)
            self.sim.call_later(delay, lambda: self._send_skip(attempt + 1))

    def _on_ack(self, packet: Packet) -> None:
        expected = packet.meta.get("expected")
        if expected is not None and self._dead:
            # The receiver's cumulative pointer has passed these gaps; the
            # skip is durable and no longer needs announcing.
            self._dead = {s for s in self._dead if s >= expected}
        seq = packet.meta["seq"]
        entry = self._outstanding.pop(seq, None)
        if entry is None:
            return  # duplicate or control ack
        if entry.retries == 0:
            # Karn's algorithm: only sample RTT from unambiguous exchanges.
            self._update_rto(self.sim.now - entry.sent_at)

    def _update_rto(self, sample: float) -> None:
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            alpha, beta = 1.0 / 8.0, 1.0 / 4.0
            self._rttvar = (1 - beta) * self._rttvar + beta * abs(self._srtt - sample)
            self._srtt = (1 - alpha) * self._srtt + alpha * sample
        self._rto = max(0.02, self._srtt + 4.0 * self._rttvar)

    # -- receiver internals ---------------------------------------------------

    def _on_receiver_side(self, packet: Packet) -> None:
        dead = packet.meta.get("dead")
        if dead:
            for seq in dead:
                if seq >= self._expected_seq:
                    self._dead_received.add(seq)
        is_data = packet.kind != "rel_skip"
        if is_data:
            seq = packet.meta["seq"]
            if (
                seq >= self._expected_seq
                and seq not in self._reorder
                and seq not in self._dead_received
            ):
                self._reorder[seq] = packet.payload
        self._drain()
        ack = Packet(
            src=self.dst,
            dst=self.src,
            size_bytes=self.ACK_SIZE,
            kind="ack",
            created_at=self.sim.now,
        )
        ack.meta["seq"] = packet.meta["seq"] if is_data else -1
        ack.meta["expected"] = self._expected_seq
        self.reverse.send(ack, self._on_ack)

    def _drain(self) -> None:
        """Deliver in order, stepping over sequences declared dead."""
        while True:
            if self._expected_seq in self._reorder:
                payload = self._reorder.pop(self._expected_seq)
                self._expected_seq += 1
                self.delivered += 1
                self.on_deliver(payload)
            elif self._expected_seq in self._dead_received:
                self._dead_received.discard(self._expected_seq)
                self._expected_seq += 1
                self.skipped += 1
            else:
                return
