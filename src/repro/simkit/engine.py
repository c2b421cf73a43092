"""The simulator event loop."""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.simkit.rng import RngRegistry
from repro.simkit.spans import NOOP_TRACER, make_tracer

#: One scheduled action: ``(time, priority, sequence, action)``.
Entry = Tuple[float, int, int, Callable[[], None]]


class SimkitError(Exception):
    """Base class for all kernel-level errors."""


class Simulator:
    """Discrete-event simulator with a float clock in seconds.

    The loop pops ``(time, priority, sequence, action)`` entries off a
    binary heap and calls the action; the monotonically increasing
    sequence number makes execution order deterministic for same-time
    entries, which in turn makes every run reproducible from the seed
    alone.

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

    #: Priority used for ordinary entries.
    PRIORITY_NORMAL = 1
    #: Priority for urgent bookkeeping (runs before normal entries at a time).
    PRIORITY_URGENT = 0

    def __init__(self, seed: int = 0, obs: Any = None) -> None:
        self._now = 0.0
        self._queue: List[Entry] = []
        self._sequence = itertools.count()
        self.rng = RngRegistry(seed)
        self._active_process: Optional[Loop] = None
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
    def active_process(self) -> Optional[Loop]:
        """The loop whose step is executing, if any."""
        return self._active_process

    # -- scheduling -----------------------------------------------------------

    def every(
        self, duration: float, step: Callable[[], Optional[float]]
    ) -> Loop:
        """Call ``step()`` now and again after each delay it returns,
        for ``duration`` seconds.

        This is the one periodic-process loop: sensors, tick loops,
        relays, failure detectors and pollers all run through it, and
        ``every(float("inf"), step)`` is an open-ended loop.
        ``step()`` returning ``None`` ends the loop early, and so does
        :meth:`Loop.interrupt`; either way the loop's finish callbacks
        run, so an owner can release its running state from a callback
        on the returned handle.

        The horizon rule: the last sleep is cut to land exactly on
        ``now + duration``.  The clock accumulates float error (40 sleeps
        of 0.05 s sum to 2.000000000000001), so an uncut final sleep would
        park the last wake an ulp past the horizon and leave the loop
        (and whatever running flag its owner holds) alive after
        ``run(until=horizon)`` returns.  The ``1e-12`` guard likewise
        keeps a wake that drifted an ulp short of the horizon from
        taking one more step.
        """
        return Loop(self, duration, step)

    def call_at(self, when: float, func: Callable[[], None]) -> None:
        """Invoke ``func()`` at absolute time ``when`` (>= now)."""
        if when < self._now:
            raise SimkitError(f"call_at into the past: {when} < {self._now}")
        self._push(self._now + (when - self._now), self.PRIORITY_NORMAL, func)

    def call_later(self, delay: float, func: Callable[[], None]) -> None:
        """Invoke ``func()`` after ``delay`` seconds."""
        self._push_later(delay, func)

    def _push_later(self, delay: float, func: Callable[[], None]) -> Entry:
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        return self._push(self._now + delay, self.PRIORITY_NORMAL, func)

    def _push(self, when: float, priority: int,
              func: Callable[[], None]) -> Entry:
        entry = (when, priority, next(self._sequence), func)
        heapq.heappush(self._queue, entry)
        return entry

    def _unschedule(self, entry: Entry) -> None:
        """Drop a pending entry.  Linear, but only an interrupt calls it;
        the remaining entries keep their order."""
        self._queue.remove(entry)
        heapq.heapify(self._queue)

    # -- running -----------------------------------------------------------

    def step(self) -> None:
        """Process exactly one entry."""
        if not self._queue:
            raise SimkitError("step() on an empty schedule")
        when, _priority, _seq, func = heapq.heappop(self._queue)
        self._now = when
        func()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last entry fires earlier, so back-to-back ``run`` calls
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


class Loop:
    """Handle on a loop started by :meth:`Simulator.every`.

    The loop takes one urgent entry to start, one normal entry per wake
    and one urgent entry to finish, which calls each of ``callbacks``
    with the handle.  If a step raises, the finish entry runs the
    callbacks and then re-raises out of :meth:`Simulator.run`.
    """

    __slots__ = ("sim", "callbacks", "is_alive", "_step", "_end", "_entry")

    def __init__(self, sim: Simulator, duration: float,
                 step: Callable[[], Optional[float]]) -> None:
        self.sim = sim
        self.callbacks: List[Callable[[Loop], None]] = []
        #: False from the moment the loop is over (its finish callbacks
        #: may still be pending).
        self.is_alive = True
        self._step = step
        self._end = sim.now + duration
        self._entry = sim._push(sim.now, sim.PRIORITY_URGENT, self._wake)

    def interrupt(self) -> None:
        """End the loop now; its pending wake is unscheduled, so it
        neither moves the clock nor counts as a processed entry.

        Interrupting a finished loop is an error, and so is a loop
        interrupting itself from inside its step.
        """
        sim = self.sim
        if not self.is_alive:
            raise SimkitError("cannot interrupt a finished loop")
        if sim.active_process is self:
            raise SimkitError("a loop cannot interrupt itself")
        sim._unschedule(self._entry)
        self.is_alive = False
        # A further urgent entry pushes the finish entry, so the callbacks
        # run after the urgent entries already due at this instant.
        sim._push(sim.now, sim.PRIORITY_URGENT, self._finish_soon)

    def _wake(self) -> None:
        sim = self.sim
        if sim._now < self._end - 1e-12:
            sim._active_process = self
            try:
                delay = self._step()
                if delay is not None:
                    if sim._now + delay > self._end:
                        delay = max(0.0, self._end - sim._now)
                    self._entry = sim._push_later(delay, self._wake)
                    return
            except BaseException as exc:
                self._finish_soon(exc)
                return
            finally:
                sim._active_process = None
        self._finish_soon()

    def _finish_soon(self, error: Optional[BaseException] = None) -> None:
        self.is_alive = False
        self.sim._push(self.sim.now, self.sim.PRIORITY_URGENT,
                       lambda: self._finish(error))

    def _finish(self, error: Optional[BaseException]) -> None:
        for callback in self.callbacks:
            callback(self)
        if error is not None:
            raise error
