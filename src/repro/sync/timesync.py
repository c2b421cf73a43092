"""NTP-style clock synchronization between devices and servers."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.simkit.clock import VirtualClock
from repro.simkit.engine import Simulator
from repro.sync.protocol import TimePing


class TimeSyncError(RuntimeError):
    """A sync burst produced no usable exchange (every reply was lost)."""


class NtpSynchronizer:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """Periodically disciplines a device clock against a reference clock.

    One exchange mirrors NTP's four timestamps: the client stamps t0 on
    send and t3 on receipt; the server stamps t1/t2.  Offset estimate is
    ``((t1 - t0) + (t2 - t3)) / 2`` — exact when the path is symmetric,
    biased by half the asymmetry otherwise.  A burst of exchanges keeps the
    minimum-RTT sample (the standard clock-filter trick).

    ``send_to_server(ping, server_stamp, on_reply)`` is the transport: it
    must deliver ``ping`` to the server (after the forward path delay),
    call ``server_stamp(ping)`` there, carry it back (reverse path delay),
    and finally call ``on_reply(ping)`` at the client.

    Transports may *lose* exchanges (a lossy link simply never calls
    ``on_reply``).  Each burst therefore runs against ``burst_timeout``:
    when the timer fires first, the burst proceeds with whatever replies
    arrived, counting the missing ones in :attr:`lost_exchanges`.  Only a
    burst with *zero* replies raises :class:`TimeSyncError` — there is no
    sample to discipline the clock with.
    """

    def __init__(
        self,
        sim: Simulator,
        client_clock: VirtualClock,
        server_clock: VirtualClock,
        send_to_server: Callable[..., None],
        burst: int = 4,
        burst_timeout: float = 1.0,
    ):
        if burst < 1:
            raise ValueError("burst must be >= 1")
        if burst_timeout <= 0:
            raise ValueError("burst_timeout must be positive")
        self.sim = sim
        self.client_clock = client_clock
        self.server_clock = server_clock
        self.send_to_server = send_to_server
        self.burst = burst
        self.burst_timeout = burst_timeout
        self.exchanges = 0
        #: Exchanges whose reply never arrived before the burst timeout.
        self.lost_exchanges = 0
        #: Replies that straggled in after their burst had already closed.
        self.late_replies = 0
        self.last_offset_estimate: Optional[float] = None

    def server_stamp(self, ping: TimePing) -> None:
        """Stamp t1/t2 with the server's clock (called by the transport).

        The clock is read **once** and reused for both timestamps: the
        model intends zero server processing time, so ``server_send -
        server_receive`` must be exactly zero in the derived RTT
        (``rtt == forward + reverse``), not whatever two successive reads
        happen to return.
        """
        stamp = self.server_clock.read()
        ping.server_receive = stamp
        ping.server_send = stamp

    def _one_exchange(self, done: Callable[[tuple], None]) -> None:
        ping = TimePing(client_send=self.client_clock.read())

        def on_reply(ping: TimePing) -> None:
            t3 = self.client_clock.read()
            offset = ((ping.server_receive - ping.client_send)
                      + (ping.server_send - t3)) / 2.0
            rtt = (t3 - ping.client_send) - (ping.server_send - ping.server_receive)
            self.exchanges += 1
            done((offset, rtt))

        self.send_to_server(ping, self.server_stamp, on_reply)

    def sync_once(self):
        """A simkit process: one burst, then step the client clock.

        Proceeds with the partial sample set when the burst timeout fires
        before every reply is back; raises :class:`TimeSyncError` if the
        timeout passes with no reply at all.
        """

        def body():
            results: List[tuple] = []
            gate = self.sim.event()
            closed = False

            def collect(result):
                if closed:
                    self.late_replies += 1
                    return
                results.append(result)
                if len(results) == self.burst and not gate.triggered:
                    gate.succeed()

            for _ in range(self.burst):
                self._one_exchange(collect)
            yield self.sim.any_of([gate, self.sim.timeout(self.burst_timeout)])
            closed = True
            missing = self.burst - len(results)
            if missing > 0:
                self.lost_exchanges += missing
            if not results:
                raise TimeSyncError(
                    f"no reply within {self.burst_timeout} s "
                    f"(all {self.burst} exchanges lost)")
            # Keep the exchange with the smallest RTT: least queueing noise.
            offset, _rtt = min(results, key=lambda pair: pair[1])
            self.last_offset_estimate = offset
            self.client_clock.adjust(offset)
            return offset

        return self.sim.process(body())

    def run(self, duration: float, interval: float = 16.0):
        """Periodic sync process (NTP polls every 16-1024 s; we default 16)."""

        def body():
            end = self.sim.now + duration
            while self.sim.now < end - 1e-12:
                yield self.sync_once()
                yield self.sim.timeout(interval)

        return self.sim.process(body())
