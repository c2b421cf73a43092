"""Reference implementations that tests check the production code against.

Each oracle here is a slower, simpler statement of a behaviour that
``src/`` implements for speed or scale; no production path runs one:

- :mod:`tests.oracles.delta` — ``DeltaEncoder``, the per-entity delta
  encoder ``repro.sync.delta.BatchDeltaEncoder`` must match;
- :mod:`tests.oracles.lod` — ``select_lod_optimal``, the exact knapsack
  that bounds the greedy ``repro.avatar.lod.select_lod``;
- :mod:`tests.oracles.consistency` — ``ConsistencyProbe``, which samples
  replica-vs-truth divergence in a running simulation;
- :mod:`tests.oracles.traces` — ``StationaryMotion``, a motionless
  ``MotionTrace`` fixture.
"""
