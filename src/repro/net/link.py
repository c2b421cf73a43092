"""A unidirectional store-and-forward link with queueing, jitter and loss."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.net.packet import Packet
from repro.simkit.engine import Simulator


@dataclass
class LinkStats:
    """Counters maintained by a :class:`Link`."""

    offered: int = 0
    delivered: int = 0
    dropped_queue: int = 0
    dropped_loss: int = 0
    dropped_down: int = 0
    reordered: int = 0
    bytes_delivered: int = 0
    busy_time: float = 0.0
    queue_delay_total: float = field(default=0.0)

    @property
    def loss_fraction(self) -> float:
        if self.offered == 0:
            return 0.0
        dropped = self.dropped_queue + self.dropped_loss + self.dropped_down
        return dropped / self.offered


class Link:
    """One direction of a wire: rate, propagation delay, jitter, loss.

    Packets serialize one at a time (FIFO) at ``rate_bps``; a packet
    arriving while the link is busy waits in the output queue, and is
    dropped if the queued backlog would exceed ``queue_limit_bytes``.
    Propagation adds ``prop_delay`` plus zero-mean truncated Gaussian jitter;
    random loss discards the packet after serialization.

    The link honours its FIFO contract end to end: jitter never reorders
    arrivals.  A jitter draw that would land a packet before an
    already-scheduled arrival is clamped to that arrival time and counted in
    ``stats.reordered``, so the modelling choice stays observable.

    Fault hooks (see :mod:`repro.net.faults`):

    ``loss_model``
        When set, an object with ``packet_lost(rng) -> bool`` replaces the
        i.i.d. Bernoulli ``loss_rate`` draw — e.g. a Gilbert–Elliott burst
        state machine.
    ``up``
        Setting ``up = False`` mid-flight drops every queued and in-flight
        packet (counted in ``dropped_down``) and resets the transmitter, so
        an outage neither leaks traffic nor resumes with phantom backlog.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        prop_delay: float,
        jitter_std: float = 0.0,
        loss_rate: float = 0.0,
        queue_limit_bytes: Optional[int] = None,
        name: str = "link",
    ):
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        if prop_delay < 0:
            raise ValueError(f"negative propagation delay: {prop_delay}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0,1), got {loss_rate}")
        self.sim = sim
        self.rate_bps = float(rate_bps)
        self.prop_delay = float(prop_delay)
        self.jitter_std = float(jitter_std)
        self.loss_rate = float(loss_rate)
        self.queue_limit_bytes = queue_limit_bytes
        self.name = name
        self.stats = LinkStats()
        self._rng = sim.rng.stream(f"link:{name}")
        self._busy_until = 0.0
        self._queued_bytes = 0
        self._in_flight = 0
        self._epoch = 0
        self._last_arrival = 0.0
        self._up = True
        self.loss_model = None

    def serialization_delay(self, packet: Packet) -> float:
        return packet.size_bytes * 8.0 / self.rate_bps

    @property
    def queued_bytes(self) -> int:  # replint: ignore[ARCH003] -- test observer of the transmit queue
        """Bytes waiting for the transmitter (excludes the packet in service)."""
        return self._queued_bytes

    @property
    def in_flight(self) -> int:  # replint: ignore[ARCH003] -- test observer of the transmit queue
        """Packets accepted by the transmitter but not yet resolved."""
        return self._in_flight

    @property
    def up(self) -> bool:
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        value = bool(value)
        if value == self._up:
            return
        self._up = value
        if not value:
            # Outage: everything accepted but not yet delivered is lost on
            # the wire, and the transmitter forgets its backlog so recovery
            # starts from a clean slate instead of draining phantom bytes.
            self.stats.dropped_down += self._in_flight
            self._in_flight = 0
            self._epoch += 1
            self._busy_until = self.sim.now
            self._queued_bytes = 0
            # Dropped packets never arrive, so they must not constrain the
            # FIFO ordering of post-recovery traffic.
            self._last_arrival = self.sim.now

    def send(self, packet: Packet, deliver: Callable[[Packet], None]) -> bool:
        """Enqueue ``packet``; ``deliver`` is called on arrival.

        Returns False if the packet was dropped at the queue (``deliver`` is
        then never invoked; random loss is *not* reported to the sender,
        exactly like a real wire).

        A packet whose ``meta`` carries an ``obs_ctx`` span context gets a
        child span covering its whole transit (queue wait + serialization
        + propagation), stage-tagged from ``meta["obs_stage"]`` (default
        ``"net"``); drops finish the span immediately with an ``outcome``
        attribute.  With tracing disabled this costs one attribute check.
        """
        obs = self.sim.obs
        span = None
        if obs.enabled:
            ctx = packet.meta.get("obs_ctx")
            if ctx is not None:
                span = obs.start_span(
                    f"link:{self.name}", packet.meta.get("obs_stage", "net"),
                    ctx, size=packet.size_bytes, kind=packet.kind)
        self.stats.offered += 1
        if not self._up:
            self.stats.dropped_down += 1
            if span is not None:
                span.finish(outcome="drop_down")
            return False
        now = self.sim.now
        wait = max(0.0, self._busy_until - now)
        if (
            self.queue_limit_bytes is not None
            and wait > 0
            and self._queued_bytes + packet.size_bytes > self.queue_limit_bytes
        ):
            self.stats.dropped_queue += 1
            if span is not None:
                span.finish(outcome="drop_queue")
            return False

        serialization = self.serialization_delay(packet)
        self._busy_until = now + wait + serialization
        self.stats.busy_time += serialization
        self.stats.queue_delay_total += wait
        epoch = self._epoch
        if wait > 0:
            # Only packets waiting for the transmitter occupy the buffer.
            self._queued_bytes += packet.size_bytes

            def _release(size=packet.size_bytes, epoch=epoch):
                if epoch == self._epoch:
                    self._queued_bytes -= size

            self.sim.call_later(wait, _release)

        jitter = 0.0
        if self.jitter_std > 0.0:
            jitter = abs(float(self._rng.normal(0.0, self.jitter_std)))
        if self.loss_model is not None:
            lost = bool(self.loss_model.packet_lost(self._rng))
        else:
            lost = self.loss_rate > 0.0 and self._rng.random() < self.loss_rate
        arrival = now + wait + serialization + self.prop_delay + jitter
        if arrival < self._last_arrival:
            # FIFO contract: a lucky jitter draw must not overtake the
            # packet serialized before this one.
            self.stats.reordered += 1
            arrival = self._last_arrival
        self._last_arrival = arrival
        self._in_flight += 1

        if span is not None:
            span.attrs["queue_wait_s"] = wait
            span.attrs["serialization_s"] = serialization

        def _complete(packet=packet, lost=lost, epoch=epoch, span=span):
            if epoch != self._epoch:
                if span is not None:
                    span.finish(outcome="drop_outage")
                return  # dropped by an outage; already counted there
            self._in_flight -= 1
            if lost:
                self.stats.dropped_loss += 1
                if span is not None:
                    span.finish(outcome="drop_loss")
                return
            self.stats.delivered += 1
            self.stats.bytes_delivered += packet.size_bytes
            if span is not None:
                span.finish(outcome="delivered")
            deliver(packet)

        self.sim.call_at(arrival, _complete)
        return True

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of time spent serializing up to ``horizon`` (or now)."""
        elapsed = horizon if horizon is not None else self.sim.now
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time / elapsed)
