"""One-shot events and timeouts."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.simkit.errors import SimkitError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.simkit.engine import Simulator


class Event:
    """A one-shot trigger that processes can wait on.

    An event moves through three states: *pending* (created, not yet fired),
    *triggered* (scheduled to call back at the current step), and *processed*
    (callbacks have run).  Events may succeed with a value or fail with an
    exception; a failed event re-raises inside every waiting process.
    """

    PENDING = "pending"
    TRIGGERED = "triggered"
    PROCESSED = "processed"

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._state = Event.PENDING
        #: Set to True by a waiter that consumed the failure, suppressing the
        #: "unhandled failed event" error at processing time.
        self.defused = False

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has fired (value or exception is final)."""
        return self._state != Event.PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self._state == Event.PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event fired successfully."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The success value; raises if the event failed or is pending."""
        if not self.triggered:
            raise SimkitError(f"{self!r} has not been triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event successfully, delivering ``value`` to waiters."""
        if self.triggered:
            raise SimkitError(f"{self!r} has already been triggered")
        self._value = value
        self._state = Event.TRIGGERED
        self.sim._enqueue_triggered(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event as a failure; waiters see ``exception`` raised."""
        if self.triggered:
            raise SimkitError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._state = Event.TRIGGERED
        self.sim._enqueue_triggered(self)
        return self

    # -- kernel interface ---------------------------------------------------

    def _process(self) -> None:
        """Invoke callbacks.  Called exactly once by the simulator."""
        callbacks, self.callbacks = self.callbacks, None
        self._state = Event.PROCESSED
        for callback in callbacks or ():
            callback(self)
        if self._exception is not None and not self.defused:
            raise self._exception

    def __repr__(self) -> str:
        return f"<{type(self).__name__} state={self._state}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` seconds in the future."""

    def __init__(self, sim: "Simulator", delay: float,
                 value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._value = value
        self._state = Event.TRIGGERED
        sim._enqueue_at(sim.now + delay, self)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimkitError("Timeout fires automatically; do not succeed() it")
