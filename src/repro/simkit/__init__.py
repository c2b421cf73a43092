"""Deterministic discrete-event simulation kernel.

``simkit`` is the substrate every other subsystem runs on.  It provides:

* :class:`~repro.simkit.engine.Simulator` — the event loop with a virtual
  clock measured in **seconds** (floats).
* :class:`~repro.simkit.event.Event` — one-shot triggers with callbacks,
  plus :class:`~repro.simkit.event.Timeout`.
* :class:`~repro.simkit.process.Process` — generator-based cooperative
  processes in the style of SimPy.
* :class:`~repro.simkit.rng.RngRegistry` — named, independently seeded
  random streams so a run is reproducible from ``(config, seed)``.

Example
-------
>>> from repro.simkit import Simulator
>>> sim = Simulator(seed=7)
>>> log = []
>>> def proc(sim):
...     yield sim.timeout(1.5)
...     log.append(sim.now)
>>> _ = sim.process(proc(sim))
>>> sim.run()
>>> log
[1.5]
"""

from repro.simkit.engine import Simulator
from repro.simkit.errors import (
    Interrupt,
    SimkitError,
    StopProcess,
)
from repro.simkit.event import Event, Timeout
from repro.simkit.process import Process
from repro.simkit.rng import RngRegistry

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "RngRegistry",
    "SimkitError",
    "Simulator",
    "StopProcess",
    "Timeout",
]
