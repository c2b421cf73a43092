"""The simulator event loop."""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

from repro.simkit.errors import Interrupt, SimkitError
from repro.simkit.event import AllOf, AnyOf, Event, Timeout
from repro.simkit.process import Process
from repro.simkit.rng import RngRegistry
from repro.simkit.spans import NOOP_TRACER, make_tracer


class Simulator:
    """Discrete-event simulator with a float clock in seconds.

    The loop pops ``(time, priority, sequence, event)`` entries off a binary
    heap; the monotonically increasing sequence number makes execution order
    deterministic for same-time events, which in turn makes every run
    reproducible from the seed alone.

    Parameters
    ----------
    seed:
        Root seed for the :class:`~repro.simkit.rng.RngRegistry`; every
        component should draw randomness from :attr:`rng` streams.
    obs:
        Span tracing (see :mod:`repro.obs.span`).  ``True`` attaches a
        fresh :class:`~repro.obs.span.SpanTracer` stamped by this
        simulator's clock; an existing tracer is used as-is.  The default
        leaves :attr:`obs` as the shared no-op tracer, whose calls
        allocate nothing — instrumented components additionally guard hot
        paths on ``sim.obs.enabled``.
    """

    #: Priority used for ordinary events.
    PRIORITY_NORMAL = 1
    #: Priority for urgent bookkeeping (runs before normal events at a time).
    PRIORITY_URGENT = 0

    def __init__(self, seed: int = 0, obs: Any = None) -> None:
        self._now = 0.0
        self._queue: list = []
        self._sequence = itertools.count()
        self.rng = RngRegistry(seed)
        self._active_process: Optional[Process] = None
        # The kernel never imports the (higher-level) observability
        # package: the no-op path lives in simkit.spans and the real
        # tracer arrives through a factory repro.obs.span registers on
        # import (ARCH001: simkit imports nothing above itself).
        if obs is None or obs is False:
            self.obs = NOOP_TRACER
        elif obs is True:
            self.obs = make_tracer(lambda: self._now)
        else:
            self.obs = obs

    # -- clock --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- event factories ------------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event; fire it with ``succeed`` / ``fail``."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Run ``generator`` as a cooperative process."""
        return Process(self, generator)

    def every(
        self, duration: float, step: Callable[[], Optional[float]]
    ) -> Process:
        """Call ``step()`` now and again after each delay it returns,
        for ``duration`` seconds.

        This is the one periodic-process loop: sensors, tick loops,
        relays, failure detectors and pollers all run through it.
        ``step()`` returning ``None`` ends the process early, and so does
        :meth:`~repro.simkit.process.Process.interrupt`; either way the
        process finishes successfully, so an owner can release its
        running state from a callback on the returned process.

        The horizon rule: the last sleep is cut to land exactly on
        ``now + duration``.  The clock accumulates float error (40 sleeps
        of 0.05 s sum to 2.000000000000001), so an uncut final sleep would
        park the last wake an ulp past the horizon and leave the process
        (and whatever running flag its owner holds) alive after
        ``run(until=horizon)`` returns.  The ``1e-12`` guard likewise
        keeps a wake that drifted an ulp short of the horizon from
        taking one more step.
        """
        end = self._now + duration

        def body() -> Generator[Event, Any, None]:
            try:
                while self._now < end - 1e-12:
                    delay = step()
                    if delay is None:
                        return
                    if self._now + delay > end:
                        delay = max(0.0, end - self._now)
                    yield self.timeout(delay)
            except Interrupt:
                pass

        return self.process(body())

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def call_at(self, when: float, func: Callable[[], None]) -> Event:
        """Invoke ``func()`` at absolute time ``when`` (>= now)."""
        if when < self._now:
            raise SimkitError(f"call_at into the past: {when} < {self._now}")
        event = self.timeout(when - self._now)
        event._add_callback(lambda _evt: func())
        return event

    def call_later(self, delay: float, func: Callable[[], None]) -> Event:
        """Invoke ``func()`` after ``delay`` seconds."""
        event = self.timeout(delay)
        event._add_callback(lambda _evt: func())
        return event

    # -- scheduling internals --------------------------------------------------

    def _enqueue_at(self, when: float, event: Event, priority: int = 1) -> None:
        heapq.heappush(self._queue, (when, priority, next(self._sequence), event))

    def _enqueue_triggered(self, event: Event) -> None:
        self._enqueue_at(self._now, event, Simulator.PRIORITY_URGENT)

    # -- running -----------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimkitError("step() on an empty schedule")
        when, _priority, _seq, event = heapq.heappop(self._queue)
        self._now = when
        event._process()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run`` calls
        tile the timeline predictably.
        """
        if until is not None and until < self._now:
            raise SimkitError(f"run(until={until}) is in the past (now={self._now})")
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                break
            self.step()
        if until is not None:
            self._now = max(self._now, until)

    def run_process(self, generator: Generator, until: Optional[float] = None) -> Any:
        """Convenience: run ``generator`` as a process to completion.

        Returns the process's return value.  Raises if the process fails or
        (with ``until``) does not finish in time.
        """
        proc = self.process(generator)
        self.run(until)
        if not proc.triggered:
            raise SimkitError("process did not finish before the horizon")
        return proc.value
