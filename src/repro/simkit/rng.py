"""Named, independently seeded random streams.

Every stochastic component draws from its own named stream so that adding a
new component (or reordering draws inside one) never perturbs the randomness
seen by the others.  Streams are derived deterministically from the root seed
and the stream name via ``numpy``'s :class:`~numpy.random.SeedSequence`.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


class RngRegistry:
    """Factory and cache of named :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name``, created on first use.

        The same ``(seed, name)`` pair always yields an identical stream.
        """
        generator = self._streams.get(name)
        if generator is None:
            # crc32 keeps the derivation stable across interpreter runs
            # (unlike hash(), which is salted).
            spawn_key = zlib.crc32(name.encode("utf-8"))
            sequence = np.random.SeedSequence(entropy=self.seed, spawn_key=(spawn_key,))
            generator = np.random.default_rng(sequence)
            self._streams[name] = generator
        return generator

    def __getitem__(self, name: str) -> np.random.Generator:
        return self.stream(name)
