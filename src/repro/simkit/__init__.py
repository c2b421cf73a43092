"""Deterministic discrete-event simulation kernel.

``simkit`` is the substrate every other subsystem runs on.  It provides:

* :class:`~repro.simkit.engine.Simulator` — the event loop with a virtual
  clock measured in **seconds** (floats): one-shot callbacks through
  ``call_at`` / ``call_later`` and periodic loops through ``every``.
* :class:`~repro.simkit.rng.RngRegistry` — named, independently seeded
  random streams so a run is reproducible from ``(config, seed)``.

Example
-------
>>> from repro.simkit import Simulator
>>> sim = Simulator(seed=7)
>>> log = []
>>> sim.call_later(1.5, lambda: log.append(("once", sim.now)))
>>> def tick():
...     log.append(("tick", sim.now))
...     return 0.4  # seconds until the next tick; None would stop the loop
>>> loop = sim.every(1.0, tick)
>>> sim.run()
>>> log
[('tick', 0.0), ('tick', 0.4), ('tick', 0.8), ('once', 1.5)]
>>> loop.is_alive
False
"""

from repro.simkit.engine import SimkitError, Simulator
from repro.simkit.rng import RngRegistry

__all__ = [
    "RngRegistry",
    "SimkitError",
    "Simulator",
]
