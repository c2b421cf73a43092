"""Generator-based cooperative processes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.simkit.errors import Interrupt, SimkitError, StopProcess
from repro.simkit.event import Event, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkit.engine import Simulator


class Process(Event):
    """A running generator; also an event that fires when it returns.

    A process body yields :class:`~repro.simkit.event.Event` instances and is
    resumed with each event's value (or has the event's exception thrown in).
    The process object itself is an event, so processes can wait on each
    other.
    """

    def __init__(self, sim: "Simulator", generator: Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"not a generator: {generator!r}")
        super().__init__(sim)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Bootstrap: resume for the first time at the current instant.
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not returned or failed."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`~repro.simkit.errors.Interrupt` into the process.

        The process stops waiting on its current event and must handle the
        interrupt (or die with it).  A timeout it was the last waiter on
        is unscheduled, so the abandoned wake neither moves the clock nor
        counts as a processed event.  Interrupting a finished process is
        an error; interrupting itself is too.
        """
        if not self.is_alive:
            raise SimkitError("cannot interrupt a finished process")
        if self.sim.active_process is self:
            raise SimkitError("a process cannot interrupt itself")
        waiting_on = self._waiting_on
        if waiting_on is not None:
            try:
                waiting_on.callbacks.remove(self._resume)
            except (ValueError, AttributeError):
                pass
            if isinstance(waiting_on, Timeout) and waiting_on.callbacks == []:
                self.sim._unschedule(waiting_on)
            self._waiting_on = None
        interrupt_event = Event(self.sim)
        interrupt_event.callbacks.append(self._resume)
        interrupt_event.fail(Interrupt(cause))
        interrupt_event.defused = True

    # -- kernel -----------------------------------------------------------

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        previous = self.sim._active_process
        self.sim._active_process = self
        try:
            while True:
                try:
                    if event._exception is not None:
                        event.defused = True
                        target = self._generator.throw(event._exception)
                    else:
                        target = self._generator.send(
                            event._value if event is not None else None
                        )
                except StopIteration as stop:
                    self.succeed(stop.value)
                    return
                except StopProcess as stop:
                    self._generator.close()
                    self.succeed(stop.value)
                    return
                except BaseException as exc:
                    self.fail(exc)
                    return
                if not isinstance(target, Event):
                    exc = SimkitError(
                        f"process yielded a non-event: {target!r}"
                    )
                    event = Event(self.sim)
                    event._exception = exc
                    continue
                if target.sim is not self.sim:
                    exc = SimkitError("yielded an event from another simulator")
                    event = Event(self.sim)
                    event._exception = exc
                    continue
                if target.processed:
                    # Already done: continue synchronously with its outcome.
                    event = target
                    if target._exception is not None:
                        target.defused = True
                    continue
                self._waiting_on = target
                target.callbacks.append(self._resume)
                return
        finally:
            self.sim._active_process = previous
