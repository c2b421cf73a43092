"""The authoritative tick server.

One data plane: every tick applies pending updates to the world's SoA
arrays, answers all subscribers' interest as one slot CSR
(:meth:`~repro.sync.interest.InterestManager.relevant_slots`, which
recomputes only the rows that may have changed), delta-encodes the
answer in one :meth:`~repro.sync.delta.BatchDeltaEncoder.encode_batch`
pass and builds the snapshots.  Replica-visible behaviour is pinned by the golden stream
digests in ``tests/golden/``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.metrics.collector import MetricsRegistry
from repro.simkit.engine import Simulator
from repro.sync.delta import BatchDeltaEncoder, WorldState
from repro.sync.interest import InterestConfig, InterestManager
from repro.sync.protocol import HEADER_BYTES, ClientUpdate, ServerSnapshot


@dataclass(frozen=True)
class ServerCostModel:
    """Per-tick compute cost of the server (seconds).

    ``base`` covers fixed tick overhead; ``per_update`` the cost of
    ingesting one client update; ``per_entity_scan`` the interest query per
    (subscriber, entity) candidate pair actually examined; ``per_state_sent``
    serialization of one entity into one snapshot.

    With grid-backed interest management the number of pairs examined is
    far below the full ``n_subscribers * n_entities`` cross product, so
    :meth:`tick_cost` charges the ``pairs_scanned`` the interest query
    measured (broadcast reports the full cross product).
    """

    base: float = 0.0002
    per_update: float = 2e-6
    per_entity_scan: float = 4e-8
    per_state_sent: float = 5e-7

    def tick_cost(self, n_updates: int, n_states_sent: int,
                  pairs_scanned: int) -> float:
        return (
            self.base
            + self.per_update * n_updates
            + self.per_entity_scan * pairs_scanned
            + self.per_state_sent * n_states_sent
        )

    @classmethod
    def vectorized(cls) -> "ServerCostModel":
        """Cost constants of the batched (SoA) data plane.

        The vectorized tick replaces per-pair and per-state Python work
        with array passes, so the marginal costs drop by roughly an order
        of magnitude (calibrated against the measured per-tick wall clock
        of the C3a N-sweep); the fixed ``base`` overhead stays.  With
        these constants a 10k-entity shard's modeled tick fits inside a
        50 ms period, which is what the 20 Hz scaling claim rests on.
        """
        return cls(base=2e-4, per_update=2e-7,
                   per_entity_scan=4e-9, per_state_sent=5e-8)


class SyncServer:
    """Tick-based authoritative world replicator.

    Clients deposit :class:`~repro.sync.protocol.ClientUpdate` messages via
    :meth:`ingest` (normally called by a network delivery callback).  Every
    tick the server applies pending updates, answers all subscribers'
    relevant sets as one slot CSR (recomputing only rows that may have
    changed), delta-encodes against what each subscriber last saw
    in one batch pass, and hands the snapshot to the subscriber's
    ``send`` callback (which routes it back through the network).

    If a tick's modeled compute cost exceeds the tick period, subsequent
    ticks are delayed — the server saturates instead of teleporting, which
    is what the scaling experiment measures.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "sync",
        tick_rate_hz: float = 20.0,
        interest: Optional[InterestManager] = None,
        cost_model: ServerCostModel = ServerCostModel(),
        keyframe_interval: int = 30,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if tick_rate_hz <= 0:
            raise ValueError("tick rate must be positive")
        self.sim = sim
        self.name = name
        self.tick_period = 1.0 / tick_rate_hz
        self.interest = interest if interest is not None else InterestManager()
        self.cost_model = cost_model
        self.world = WorldState()
        self._keyframe_interval = keyframe_interval
        self.encoder = BatchDeltaEncoder(keyframe_interval=keyframe_interval)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._subscribers: Dict[str, Callable[[ServerSnapshot], None]] = {}
        #: Per-client snapshot decimation factor (>= 2): the client is
        #: served on 1 of every N ticks.  Safe by construction: a skipped
        #: client's delta-encoder state is untouched, so its next served
        #: tick carries the *cumulative* delta since the last one — no
        #: state is lost, the stream just coarsens.  Entries persist
        #: across unsubscribe (they are client policy, not session state).
        self._decimation: Dict[str, int] = {}
        #: Advisory best-LOD-tier name per client; the deployment's render
        #: planner reads it back (:meth:`lod_hint`) and caps `select_lod`.
        self._lod_hints: Dict[str, str] = {}
        self._pending: list = []
        # Traced updates awaiting the next tick: entity -> (ctx, ingest time).
        self._traced: Dict[str, tuple] = {}
        self.tick_count = 0
        self._running = False
        self.crashed = False
        self.crash_count = 0
        self._tick_process = None
        self._run_token: Optional[object] = None
        # Measurement window of the current/most recent run() call.
        self._window_start_time = 0.0
        self._window_end_time: Optional[float] = None
        self._window_start_ticks = 0
        self._window_start_bytes = 0.0
        # Subscriber-seconds integral: per-client egress divides window
        # bytes by the *time-averaged* subscriber count, so churn during
        # the window cannot skew the mean (dividing by the instantaneous
        # count at read time did).
        self._sub_seconds = 0.0
        self._subs_accrued_at = sim.now
        self._window_start_sub_seconds = 0.0
        self._window_end_sub_seconds: Optional[float] = None

    # -- membership --------------------------------------------------------

    def _accrue_subscriber_seconds(self) -> None:
        """Fold elapsed time into the subscriber-seconds integral."""
        now = self.sim.now
        self._sub_seconds += len(self._subscribers) * \
            (now - self._subs_accrued_at)
        self._subs_accrued_at = now

    def subscribe(self, client_id: str, send: Callable[[ServerSnapshot], None]) -> None:
        """Register a client; ``send(snapshot)`` is invoked every tick."""
        if self.crashed:
            raise RuntimeError(f"server {self.name!r} is crashed")
        self._accrue_subscriber_seconds()
        self._subscribers[client_id] = send

    def unsubscribe(self, client_id: str) -> None:
        self._accrue_subscriber_seconds()
        self._subscribers.pop(client_id, None)
        self.encoder.forget(client_id)
        self.world.remove(client_id)

    @property
    def n_subscribers(self) -> int:
        return len(self._subscribers)

    # -- per-client adaptation knobs ---------------------------------------

    def set_snapshot_decimation(self, client_id: str, factor: int) -> None:
        """Serve ``client_id`` on only 1 of every ``factor`` ticks.

        ``factor`` 1 restores full rate.  Decimation composes with delta
        encoding for free: the skipped ticks' changes simply accumulate
        into the next served snapshot, so the client sees a coarser but
        complete stream at ``tick_rate / factor`` — the adaptation
        controller's per-client tick-rate knob, and actuation is real
        (fewer snapshots on the wire, less queueing on the access link).
        """
        factor = int(factor)
        if factor < 1:
            raise ValueError("decimation factor must be >= 1")
        if factor == 1:
            self._decimation.pop(client_id, None)
        else:
            self._decimation[client_id] = factor

    def snapshot_decimation(self, client_id: str) -> int:
        """Current decimation factor for ``client_id`` (1 = full rate)."""
        return self._decimation.get(client_id, 1)

    def set_lod_hint(self, client_id: str, level: Optional[str]) -> None:
        """Advise the client's render planner of its best permitted tier.

        ``None`` clears the hint.  Validated against the LOD ladder so a
        typo fails here, not silently at the renderer.
        """
        if level is None:
            self._lod_hints.pop(client_id, None)
            return
        from repro.avatar.lod import level_by_name
        level_by_name(level)  # raises KeyError on unknown tiers
        self._lod_hints[client_id] = level

    def lod_hint(self, client_id: str) -> Optional[str]:
        return self._lod_hints.get(client_id)

    def _sends_this_tick(self, client_id: str) -> bool:
        """Whether a decimated client is served on the current tick.

        Each client's serve phase is a stable hash of its id (crc32, not
        ``hash()`` — that one is salted per process and would break
        replay), so decimated clients spread across ticks instead of all
        landing on tick 0 modulo N.
        """
        factor = self._decimation.get(client_id)
        if factor is None:
            return True
        phase = zlib.crc32(client_id.encode()) % factor
        return self.tick_count % factor == phase

    # -- data path ------------------------------------------------------------

    def ingest(self, update: ClientUpdate) -> None:
        """Receive one client update (applied on the next tick)."""
        if self.crashed:
            return  # updates addressed to a dead server vanish
        if self.sim.obs.enabled and update.ctx is not None:
            self._traced[update.client_id] = (update.ctx, self.sim.now)
        self._pending.append(update)

    def trace_entity(self, entity_id: str, ctx) -> None:
        """Attribute the next tick's handling of ``entity_id`` to ``ctx``.

        For ingress paths that bypass :meth:`ingest` (e.g. edge-pushed
        avatar states applied straight to the world).  No-op when the
        simulator's span tracer is disabled.
        """
        if self.sim.obs.enabled and ctx is not None and not self.crashed:
            self._traced[entity_id] = (ctx, self.sim.now)

    # -- failure model -------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: drop all subscribers, pending updates and tick state.

        The tick process (if any) is interrupted immediately; clients only
        find out when their snapshots stop, which is exactly the signal a
        failure detector has to work with.  Idempotent.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crash_count += 1
        self._accrue_subscriber_seconds()
        self._subscribers.clear()
        self._pending.clear()
        self._traced.clear()
        # Release the running state synchronously: the interrupt below only
        # lands on the next event cascade, but a restart may want to re-arm
        # run() within this one.  The stale token keeps the interrupted
        # process's cleanup from clobbering that newer run.
        self._run_token = None
        if self._running:
            self._running = False
            self._window_end_time = self.sim.now
            self._window_end_sub_seconds = self._sub_seconds
        process = self._tick_process
        if (
            process is not None
            and process.is_alive
            and self.sim.active_process is not process
        ):
            process.interrupt("server crash")

    def stop(self) -> None:
        """Gracefully end the current run loop (the decommission path).

        Unlike :meth:`crash` the server keeps its world, subscribers and
        metrics — it simply stops ticking, closing the measurement window
        as if the run's horizon had arrived.  Idempotent; a later
        :meth:`run` starts a fresh window.  No-op when called from inside
        the tick process itself.
        """
        process = self._tick_process
        if (
            self._running
            and process is not None
            and process.is_alive
            and self.sim.active_process is not process
        ):
            process.interrupt("server stop")

    def restart(self) -> None:
        """Come back up with empty memory (world and delta state died).

        Subscribers must re-attach; the fresh delta encoder then opens
        every re-attached client with a full keyframe, the same mechanism
        migration relies on.  Call :meth:`run` afterwards to resume ticking.
        """
        if not self.crashed:
            raise RuntimeError(f"server {self.name!r} is not crashed")
        self.crashed = False
        self.world = WorldState()
        self.encoder = BatchDeltaEncoder(
            keyframe_interval=self._keyframe_interval)
        self._pending = []

    def _do_tick(self) -> float:
        """Run one tick straight over the SoA arrays; returns its modeled
        compute cost.

        Ingested updates land in the world's slot arrays; interest answers
        every subscriber as a CSR of slots, reusing last tick's unchanged
        rows; the batch encoder turns that into per-subscriber send masks
        and removal lists in one pass; snapshot sizes come from one
        weighted bincount over the cached per-slot wire sizes.  Python
        touches each *sent* state once, in the snapshot list build.
        """
        obs = self.sim.obs
        world = self.world
        updates, self._pending = self._pending, []
        if updates:
            world.apply_many([update.state for update in updates])
        if self._decimation:
            sub_ids = [
                c for c in self._subscribers if self._sends_this_tick(c)
            ]
            self.metrics.incr(
                "snapshots_decimated", len(self._subscribers) - len(sub_ids))
        else:
            sub_ids = list(self._subscribers)
        sends = [self._subscribers[c] for c in sub_ids]
        s = len(sub_ids)
        offsets, flat_slots, pairs_scanned = self.interest.relevant_slots(
            world, sub_ids)
        send_mask, full_flags, removed_lists = self.encoder.encode_batch(
            world, sub_ids, offsets, flat_slots)

        counts = np.diff(offsets)
        local_repeat = np.repeat(np.arange(s, dtype=np.int64), counts)
        sent_rows = local_repeat[send_mask]
        size_sums = np.bincount(
            sent_rows, weights=world.wire_sizes[flat_slots[send_mask]],
            minlength=s).astype(np.int64)

        traced: Dict[str, tuple] = {}
        compute_share = 0.0
        if obs.enabled:
            now = self.sim.now
            if self._traced:
                traced, self._traced = self._traced, {}
                for entity_id, (ctx, ingested_at) in traced.items():
                    obs.record_span(
                        "tick_wait", "tick_wait", ingested_at, now,
                        parent=ctx, entity=entity_id, tick=self.tick_count)
            compute_share = (
                self.cost_model.base
                + self.cost_model.per_update * len(updates)
                + self.cost_model.per_entity_scan * pairs_scanned
            ) / max(1, s)
        spanned: set = set()

        states_sent = snapshots = snapshot_bytes = 0
        # One flat zero-copy pass over everything sent this tick (CSR
        # order groups it by subscriber already); the per-subscriber loop
        # below then just list-slices, with no numpy work per subscriber.
        # Snapshot states are the world's stored objects, shared across
        # subscribers: ``WorldState.apply`` replaces a slot's state object
        # wholesale and never mutates one in place, so a delivered
        # snapshot stays frozen at its tick.  Consumers copy before
        # mutating (see ``AvatarInterpolator``).
        states_flat = world.states_at(flat_slots[send_mask].tolist())
        send_counts = np.bincount(sent_rows, minlength=s).astype(np.int64) \
            if len(sent_rows) else np.zeros(s, dtype=np.int64)
        send_ends = np.cumsum(send_counts).tolist()
        for i in range(s):
            end = send_ends[i]
            start = end - int(send_counts[i])
            removed = removed_lists[i]
            if start == end and not removed:
                continue
            states = states_flat[start:end]
            snapshot = ServerSnapshot(
                tick=self.tick_count,
                server_time=self.sim.now,
                states=states,
                removed=removed,
                full=bool(full_flags[i]),
                cached_size_bytes=HEADER_BYTES + int(size_sums[i])
                + 8 * len(removed),
            )
            if traced:
                included = {
                    state.participant_id for state in states
                    if state.participant_id in traced
                }
                if included:
                    now = self.sim.now
                    ready_at = now + compute_share + \
                        self.cost_model.per_state_sent * len(states)
                    snapshot.trace = {}
                    # sorted(): `included` is a set; span/trace-map
                    # order must be stable for byte-identical trace
                    # replay across interpreter runs.
                    for entity_id in sorted(included):
                        ctx, _ingested_at = traced[entity_id]
                        snapshot.trace[entity_id] = (ctx, ready_at)
                        if entity_id not in spanned:
                            spanned.add(entity_id)
                            obs.record_span(
                                "interest_delta", "interest_delta",
                                now, ready_at, parent=ctx,
                                entity=entity_id, tick=self.tick_count,
                                states=len(states))
            states_sent += len(states)
            snapshots += 1
            snapshot_bytes += snapshot.size_bytes
            sends[i](snapshot)
        if snapshots:
            self.metrics.incr("snapshot_bytes", snapshot_bytes)
            self.metrics.incr("snapshots_sent", snapshots)
        cost = self.cost_model.tick_cost(
            len(updates), states_sent, pairs_scanned)
        if obs.enabled:
            now = self.sim.now
            obs.record_span(
                "tick", "tick", now, now + cost,
                server=self.name, tick=self.tick_count,
                updates=len(updates), states_sent=states_sent,
                subscribers=s, pairs_scanned=pairs_scanned)
        self.metrics.tracker("tick_cost").record(cost)
        self.metrics.incr("updates_ingested", len(updates))
        self.metrics.incr("interest_pairs_scanned", pairs_scanned)
        self.tick_count += 1
        return cost

    def tick_once(self) -> float:
        """One synchronous tick outside the run loop; returns its modeled
        cost.  Does not advance simulated time — the C3a N-sweep wall-clocks
        this to measure the data plane itself, free of driver overhead."""
        if self.crashed:
            raise RuntimeError(f"server {self.name!r} is crashed; restart() first")
        return self._do_tick()

    def run(self, duration: float):
        """A simkit process ticking for ``duration`` seconds.

        Starts a fresh measurement window (see :meth:`achieved_tick_rate`).
        The running flag is released even if the tick process fails or is
        interrupted, so a subsequent ``run()`` can retry.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if self.crashed:
            raise RuntimeError(f"server {self.name!r} is crashed; restart() first")
        if self._running:
            raise RuntimeError("server already running")
        self._running = True
        token = object()
        self._run_token = token
        self._window_start_time = self.sim.now
        self._window_end_time = None
        self._window_start_ticks = self.tick_count
        self._window_start_bytes = self.metrics.counter("snapshot_bytes")
        self._accrue_subscriber_seconds()
        self._window_start_sub_seconds = self._sub_seconds
        self._window_end_sub_seconds = None

        def tick():
            if self.crashed:
                return None  # fail-stop: the tick process dies with the server
            # An overloaded server stretches its tick interval.
            return max(self.tick_period, self._do_tick())

        def close(_process):
            if self._run_token is token:
                self._running = False
                self._window_end_time = self.sim.now
                self._accrue_subscriber_seconds()
                self._window_end_sub_seconds = self._sub_seconds

        self._tick_process = self.sim.every(duration, tick)
        self._tick_process.callbacks.append(close)
        return self._tick_process

    # -- measurement ----------------------------------------------------------

    def _window_elapsed(self, duration: Optional[float]) -> float:
        """Measurement span: explicit ``duration`` or the run window."""
        if duration is not None:
            if duration <= 0:
                raise ValueError("duration must be positive")
            return duration
        end = self._window_end_time
        if end is None:
            end = self.sim.now
        elapsed = end - self._window_start_time
        if elapsed <= 0:
            raise ValueError("no elapsed run window to measure")
        return elapsed

    def achieved_tick_rate(self, duration: Optional[float] = None) -> float:
        """Ticks per second delivered during the current run window.

        Counters are windowed per ``run()`` call, so back-to-back runs each
        report their own rate instead of dividing lifetime totals by the
        latest duration.  ``duration`` overrides the measured window span
        (it must then match the window the caller has in mind).
        """
        return (self.tick_count - self._window_start_ticks) / \
            self._window_elapsed(duration)

    def egress_bytes_per_client_s(self, duration: Optional[float] = None) -> float:
        """Mean downstream bandwidth per subscriber (bytes/s), windowed.

        The divisor is the *time-averaged* subscriber count over the run
        window (subscriber-seconds / window span), not the instantaneous
        count at read time — with churn those differ wildly: a server that
        served 100 clients for a minute and has 1 left when the metric is
        read sent ~1/100th of the per-client bandwidth the old divisor
        claimed.
        """
        if duration is not None:
            self._window_elapsed(duration)  # raises on duration <= 0
        if self._window_end_sub_seconds is not None:
            sub_seconds = self._window_end_sub_seconds \
                - self._window_start_sub_seconds
            span = (self._window_end_time or self.sim.now) \
                - self._window_start_time
        else:
            self._accrue_subscriber_seconds()
            sub_seconds = self._sub_seconds - self._window_start_sub_seconds
            span = self.sim.now - self._window_start_time
        if sub_seconds <= 0 or span <= 0:
            return 0.0
        mean_subscribers = sub_seconds / span
        sent = self.metrics.counter("snapshot_bytes") - self._window_start_bytes
        return sent / mean_subscribers / self._window_elapsed(duration)

