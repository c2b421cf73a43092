"""Federated regional sync shards with cross-shard interest relay.

Section 3.3's answer to worldwide scale is **regional servers**: WAN
round-trips in the hundreds of milliseconds make one authoritative
server untenable, so each user syncs against a nearby shard.  Before
this module the repo only *planned* regions (`cloud.regions.plan_regions`
picks k sites); nothing served users from them.  :class:`ShardedSyncService`
closes that gap: one :class:`~repro.sync.server.SyncServer` per site of a
:class:`~repro.cloud.regions.RegionalPlan`, per-user access links and
per-site-pair inter-shard links whose delays come from the
:class:`~repro.net.latency.WanLatencyModel`, and a federation protocol
that keeps every client's view consistent:

* each client's :class:`~repro.sync.protocol.ClientUpdate` routes to its
  *home* shard over its access link;
* every directed shard pair runs a :class:`ShardRelay` that periodically
  forwards a **delta stream** of the entities homed on the source shard
  that are relevant to any subscriber homed on the destination shard
  (computed with the same :class:`~repro.sync.interest.InterestManager`
  policy the shards use, delta-encoded by a
  :class:`~repro.sync.delta.BatchDeltaEncoder` so only changed states
  cross the WAN); forwarded states materialize as *ghost* entities in the
  destination world, where the destination shard's own interest/delta
  tick serves them to its subscribers;
* relays piggyback a *subscriber digest* (the positions of the home
  subscribers of the sending shard) so the reverse relay knows which
  remote subjects to compute relevance for — interest aggregation is
  message-passing, never shared memory.

Because the nearest-k interest policy is monotone under restriction (an
entity in the full-world nearest-k of a subject is in the nearest-k of
any candidate subset containing it), the ghost set at a shard always
contains every entity the single-server oracle would deem relevant to
its subscribers, and each shard's tick then reproduces the oracle's
relevant sets exactly — the `federation` property tests pin this.

**Cross-shard handoff** is the live version of the plan's reassignment:
:class:`ShardHandoffController` arms one
:class:`~repro.sync.migration.FailoverController` per client (standbys
ordered nearest-first), watches for shard crashes
(:class:`~repro.net.faults.ServerCrashSchedule` compatible) and re-homes
the dead shard's users through
:func:`~repro.cloud.regions.reassign_after_outage`, while voluntary
moves (:meth:`ShardedSyncService.move_user`) and placement rebalances
(:meth:`ShardedSyncService.rebalance`, built on
``plan_regions(exclude=)``) ride the make-before-break
:class:`~repro.sync.migration.MigratableClient` path.  Either way the
client's blackout is bounded by detection + handover + first keyframe.

Observability: relay packets carry ``obs_ctx``/``obs_stage`` metadata,
so a traced update that crosses shards gets a ``shard_relay`` stage span
from the inter-shard :class:`~repro.net.link.Link` and its remote
``tick_wait``/``interest_delta`` attribution continues at the
destination shard (`SyncServer.trace_entity`).  The motion-to-photon
report then shows shard-relay latency as its own budget line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.cloud.regions import (
    RegionalPlan,
    plan_regions,
    reassign_after_outage,
)
from repro.metrics.collector import MetricsRegistry
from repro.net.geo import CITY_REGIONS, WORLD_CITIES
from repro.net.latency import WanLatencyModel
from repro.net.link import Link
from repro.net.packet import Packet
from repro.simkit.engine import Simulator
from repro.sync.client import SyncClient
from repro.sync.delta import OWNER_LOCAL, BatchDeltaEncoder
from repro.sync.interest import InterestConfig, InterestManager
from repro.sync.migration import FailoverController, MigratableClient
from repro.sync.protocol import HEADER_BYTES, ClientUpdate, ServerSnapshot
from repro.sync.server import ServerCostModel, SyncServer

_ORIGIN = np.zeros(3)

#: Wire bytes per subscriber-digest entry: 8-byte id hash + 3 x 4-byte
#: quantized coordinates.
DIGEST_ENTRY_BYTES = 20


@dataclass
class ShardDelta:
    """One relay message between shards: delta states + subscriber digest.

    ``states``/``removed`` are the delta stream of source-homed entities
    relevant to the destination's subscribers; ``subscribers`` is the
    source shard's home-subscriber position digest (the reverse relay's
    interest subjects).  ``trace`` maps traced entity ids to their span
    contexts — out-of-band observability bookkeeping, no wire bytes.
    """

    src_site: str
    dst_site: str
    seq: int
    #: State-payload wire bytes: the relay sums the world's cached
    #: per-slot wire sizes of the sent states in one reduction.
    states_bytes: int
    states: List[Any] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    subscribers: Dict[str, np.ndarray] = field(default_factory=dict)
    full: bool = False
    trace: Optional[Dict[str, Any]] = None

    @property
    def size_bytes(self) -> int:
        size = HEADER_BYTES + self.states_bytes
        size += 8 * len(self.removed)
        size += DIGEST_ENTRY_BYTES * len(self.subscribers)
        return size


class ShardRelay:
    """The directed federation pipe from one shard to another.

    Every firing determines which source-homed entities any destination
    subscriber cares about (one batch interest query against the latest
    digest received from the other side, reused while neither the local
    entities nor the digest changed), delta-encodes the answer against
    what this relay last forwarded, and ships the result plus the
    source's own subscriber digest over the inter-shard link.
    """

    def __init__(
        self,
        service: "ShardedSyncService",
        src_site: str,
        dst_site: str,
        link: Link,
        interest: InterestManager,
        encoder: BatchDeltaEncoder,
    ):
        self.service = service
        self.src_site = src_site
        self.dst_site = dst_site
        self.link = link
        self.interest = interest
        self.encoder = encoder
        #: Latest digest from the destination: its home subscribers'
        #: positions, the subjects this relay computes relevance for.
        self.remote_subjects: Dict[str, np.ndarray] = {}
        self.seq = 0
        self.deltas_sent = 0
        self.states_forwarded = 0
        self.bytes_sent = 0
        #: Set when either endpoint is decommissioned; the relay process
        #: exits on its next wake and in-flight fires become no-ops.
        self.stopped = False
        #: ``(ids, slots, points, subject_points, relevant slots)`` of the
        #: last batch interest computation, reused while inputs repeat.
        self._relevant: Optional[tuple] = None

    def _encode(self, src) -> tuple:
        """SoA relay round: the source-local slot block feeds the
        vectorized interest core directly; the union of every remote
        subject's CSR row is delta-encoded in one
        :meth:`~repro.sync.delta.BatchDeltaEncoder.encode_batch` call
        with this relay's destination as the single subscriber row.

        The relevant-slot set is a pure function of the local
        ``(ids, slots, points)`` and the stacked remote-subject points,
        so a fire whose inputs equal the previous computation's reuses
        its answer: shard worlds move on their tick, and a relay may
        fire several times per tick.  The delta encode still runs every
        fire, which keeps the keyframe cadence per encode call."""
        world = src.world
        ids, slots, points, rows = self.service.local_soa(self.src_site)
        if self.remote_subjects and len(slots):
            subject_points = np.array(
                list(self.remote_subjects.values()), dtype=float)
            cached = self._relevant
            if cached is not None \
                    and np.array_equal(cached[2], points) \
                    and np.array_equal(cached[3], subject_points) \
                    and np.array_equal(cached[1], slots) \
                    and cached[0] == ids:
                rel_slots = cached[4]
            else:
                rel_slots = self._relevant_slots(
                    world, ids, slots, points, rows, subject_points)
                self._relevant = (ids, slots, points, subject_points,
                                  rel_slots)
        else:
            rel_slots = np.empty(0, dtype=np.int64)
        send_mask, full_flags, removed_lists = self.encoder.encode_batch(
            world, [self.dst_site],
            np.array([0, len(rel_slots)], dtype=np.int64), rel_slots)
        sent_slots = rel_slots[send_mask]
        states = [world.state_at(s).copy() for s in sent_slots.tolist()]
        states_bytes = int(world.wire_sizes[sent_slots].sum())
        return states, removed_lists[0], bool(full_flags[0]), states_bytes

    def _relevant_slots(self, world, ids, slots, points, rows,
                        subject_points) -> np.ndarray:
        """Slots of the local entities relevant to any remote subject.

        Id ranks come from the world's cached lexicographic ranks
        restricted to the local ``rows``: the restriction keeps their
        relative order, which is all the distance tie-break reads."""
        no_self = np.full(len(subject_points), -1, dtype=np.int64)
        always_rows = np.flatnonzero(np.fromiter(
            (entity_id in self.interest.config.always_relevant
             for entity_id in ids), dtype=bool, count=len(ids)))
        ranks = world.lexicographic_ranks()[rows]
        _offsets, flat = self.interest.relevant_indices_batch(
            points, subject_points, no_self, always_rows, ranks)
        if not len(flat):
            return np.empty(0, dtype=np.int64)
        return slots[np.unique(flat)]

    def fire(self) -> Optional[ShardDelta]:
        """One relay round; returns the delta sent (None when idle)."""
        service = self.service
        if self.stopped:
            return None
        src = service.shards.get(self.src_site)
        if src is None or src.crashed:
            return None
        states, removed, full, states_bytes = self._encode(src)
        digest = service.home_subscriber_digest(self.src_site)
        if not states and not removed and not digest:
            return None
        delta = ShardDelta(
            src_site=self.src_site,
            dst_site=self.dst_site,
            seq=self.seq,
            states_bytes=states_bytes,
            states=states,
            removed=removed,
            subscribers=digest,
            full=full,
        )
        self.seq += 1
        packet = Packet(
            src=self.src_site, dst=self.dst_site,
            size_bytes=max(1, delta.size_bytes),
            kind="shard_delta", payload=delta,
            created_at=service.sim.now,
        )
        if service.sim.obs.enabled:
            traced = {
                state.participant_id: service._traced[state.participant_id]
                for state in states
                if state.participant_id in service._traced
            }
            if traced:
                delta.trace = traced
                packet.meta["obs_ctx"] = next(iter(traced.values()))
                packet.meta["obs_stage"] = "shard_relay"
        self.deltas_sent += 1
        self.states_forwarded += len(states)
        self.bytes_sent += delta.size_bytes
        self.link.send(packet, service._on_shard_delta_packet)
        return delta


@dataclass
class FederatedClient:
    """One service-managed client: sync state plus its migration shim."""

    user_id: str
    client: SyncClient
    migratable: MigratableClient

    @property
    def home(self) -> str:
        """The site currently serving this client."""
        return self.migratable.current_server.name


class ShardedSyncService:
    """A federation of regional :class:`SyncServer` shards over one plan.

    Parameters
    ----------
    sim:
        The shared simulator.
    plan:
        Site choice and user→site assignment (usually from
        :func:`~repro.cloud.regions.plan_regions`).  Hand-built plans
        with virtual site names are accepted: unknown sites fall back to
        ``default_inter_shard_delay`` / ``default_access_delay``.
    population:
        Optional :class:`~repro.workload.population.RemotePopulation`
        providing user geography, used for cross-site access delays and
        crash-time reassignment.  Without it access delays fall back to
        the plan's recorded RTTs.
    model:
        WAN latency model for link propagation delays (jitter-free
        sampling, so the federation is a pure function of the seed).
    """

    def __init__(
        self,
        sim: Simulator,
        plan: RegionalPlan,
        population=None,
        model: Optional[WanLatencyModel] = None,
        *,
        tick_rate_hz: float = 20.0,
        relay_rate_hz: Optional[float] = None,
        interest_config: Optional[InterestConfig] = None,
        cost_model: ServerCostModel = ServerCostModel(),
        keyframe_interval: int = 30,
        inter_shard_rate_bps: float = 1e9,
        access_rate_bps: float = 50e6,
        default_inter_shard_delay: float = 0.02,
        default_access_delay: float = 0.005,
        name: str = "fed",
    ):
        if not plan.sites:
            raise ValueError("plan has no sites")
        if len(set(plan.sites)) != len(plan.sites):
            raise ValueError(f"duplicate sites in plan: {plan.sites}")
        if relay_rate_hz is not None and relay_rate_hz <= 0:
            raise ValueError("relay rate must be positive")
        self.sim = sim
        self.plan = plan
        self.population = population
        self.model = model if model is not None else WanLatencyModel()
        self.name = name
        self.interest_config = (
            interest_config if interest_config is not None else InterestConfig()
        )
        self.access_rate_bps = float(access_rate_bps)
        self.default_inter_shard_delay = float(default_inter_shard_delay)
        self.default_access_delay = float(default_access_delay)
        self.relay_period = 1.0 / (
            relay_rate_hz if relay_rate_hz is not None else tick_rate_hz
        )
        # Shard construction parameters, kept for elastic growth: a shard
        # provisioned mid-run (add_site) must be indistinguishable from
        # one built here.
        self._tick_rate_hz = float(tick_rate_hz)
        self._cost_model = cost_model
        self._keyframe_interval = int(keyframe_interval)
        self._inter_shard_rate_bps = float(inter_shard_rate_bps)
        #: Horizon of the current start() window (None outside a run);
        #: shards added mid-run arm their tick/relay processes for the
        #: remaining span so the whole fleet winds down together.
        self._run_until: Optional[float] = None
        self.metrics = MetricsRegistry()
        self.users = {
            user.user_id: user for user in getattr(population, "users", [])
        }
        self.home: Dict[str, str] = dict(plan.assignment)
        #: Which shard an entity is authoritative on.  Ghost copies in
        #: other shards' worlds keep their original home, which is what
        #: stops a relay from echoing a ghost back to where it came from.
        self.entity_home: Dict[str, str] = {}
        self.clients: Dict[str, FederatedClient] = {}
        #: Owner code per site (1-based; ``OWNER_LOCAL`` = 0 marks locally
        #: authoritative slots).  Ghost entities applied from a relay are
        #: tagged with their home shard's code straight in the world's SoA
        #: ``owners`` array, so "which entities are mine" is an array
        #: compare instead of a per-entity dict filter.
        self.site_codes: Dict[str, int] = {
            site: code for code, site in enumerate(plan.sites, start=1)
        }
        self.shards: Dict[str, SyncServer] = {
            site: self._make_shard(site) for site in plan.sites
        }
        self.relays: Dict[Tuple[str, str], ShardRelay] = {}
        for src in plan.sites:
            for dst in plan.sites:
                if src == dst:
                    continue
                self.relays[(src, dst)] = self._make_relay(src, dst)
        self._access_links: Dict[Tuple[str, str, str], Link] = {}
        #: Latest span context per traced entity (obs enabled only).
        self._traced: Dict[str, Any] = {}
        #: Service-level adaptation knobs (user -> factor / tier name).
        #: Pushed to *every* shard so they survive voluntary moves and
        #: crash failovers — whichever shard ends up serving the user
        #: already holds its decimation/LOD policy.
        self._decimation: Dict[str, int] = {}
        self._lod_hints: Dict[str, str] = {}

    def _make_shard(self, site: str) -> SyncServer:
        return SyncServer(
            self.sim, name=site, tick_rate_hz=self._tick_rate_hz,
            interest=InterestManager(self.interest_config),
            cost_model=self._cost_model,
            keyframe_interval=self._keyframe_interval,
        )

    def _make_relay(self, src: str, dst: str) -> ShardRelay:
        link = Link(
            self.sim, self._inter_shard_rate_bps,
            self._inter_shard_delay(src, dst),
            name=f"{self.name}:{src}->{dst}",
        )
        return ShardRelay(
            self, src, dst, link,
            interest=InterestManager(self.interest_config),
            encoder=BatchDeltaEncoder(
                keyframe_interval=self._keyframe_interval),
        )

    # -- geography ---------------------------------------------------------

    def _inter_shard_delay(self, a: str, b: str) -> float:
        if a in WORLD_CITIES and b in WORLD_CITIES:
            return self.model.one_way_delay(
                WORLD_CITIES[a], WORLD_CITIES[b],
                CITY_REGIONS[a], CITY_REGIONS[b], sample_jitter=False,
            )
        return self.default_inter_shard_delay

    def access_delay(self, user_id: str, site: str) -> float:
        """One-way user ↔ site delay (jitter-free, so it replays)."""
        user = self.users.get(user_id)
        if user is not None and site in WORLD_CITIES:
            return self.model.one_way_delay(
                user.geo, WORLD_CITIES[site],
                user.region, CITY_REGIONS[site], sample_jitter=False,
            )
        rtt = self.plan.rtts.get(user_id)
        if rtt is not None:
            return rtt / 2.0
        return self.default_access_delay

    def nearest_sites(self, user_id: str, sites: Iterable[str]) -> List[str]:
        """``sites`` ordered nearest-first for ``user_id``: by access
        delay, ties broken by site name so replays are byte-identical."""
        return sorted(sites, key=lambda s: (self.access_delay(user_id, s), s))

    def _access_link(self, user_id: str, site: str, direction: str) -> Link:
        key = (user_id, site, direction)
        link = self._access_links.get(key)
        if link is None:
            arrow = "->" if direction == "up" else "<-"
            link = Link(
                self.sim, self.access_rate_bps,
                self.access_delay(user_id, site),
                name=f"{self.name}:{user_id}{arrow}{site}",
            )
            self._access_links[key] = link
        return link

    # -- membership --------------------------------------------------------

    def add_client(
        self,
        user_id: str,
        update_rate_hz: float = 20.0,
        interpolation_delay: float = 0.1,
        epoch: int = 0,
    ) -> FederatedClient:
        """Attach one remote user to their assigned home shard.

        A user rejoining after a client-side crash (fresh state with a
        reset seq counter) must pass a higher ``epoch`` than its previous
        session: federation ghosts of the pre-crash stream survive in
        every shard's world, and without the epoch bump their higher seqs
        would make the rejoined client's updates look stale everywhere.
        """
        if user_id in self.clients:
            raise ValueError(f"client {user_id!r} already added")
        site = self.home.get(user_id)
        if site is None:
            raise KeyError(f"user {user_id!r} is not in the plan's assignment")
        client = SyncClient(
            self.sim, user_id,
            transmit=lambda update: self.route_update(user_id, update),
            update_rate_hz=update_rate_hz,
            interpolation_delay=interpolation_delay,
            epoch=epoch,
        )
        migratable = MigratableClient(
            self.sim, client, self.shards[site],
            self._downlink_path(site, user_id),
        )
        federated = FederatedClient(user_id, client, migratable)
        self.clients[user_id] = federated
        return federated

    # -- per-client adaptation knobs ---------------------------------------

    def set_snapshot_decimation(self, user_id: str, factor: int) -> None:
        """Serve ``user_id`` on 1 of every ``factor`` shard ticks.

        Applied to every shard (not just the current home) so the policy
        follows the user through migrations and crash failovers without a
        re-apply hook on each path.
        """
        factor = int(factor)
        if factor < 1:
            raise ValueError("decimation factor must be >= 1")
        if factor == 1:
            self._decimation.pop(user_id, None)
        else:
            self._decimation[user_id] = factor
        for shard in self.shards.values():
            shard.set_snapshot_decimation(user_id, factor)

    def snapshot_decimation(self, user_id: str) -> int:
        return self._decimation.get(user_id, 1)

    def set_lod_hint(self, user_id: str, level: Optional[str]) -> None:
        """Advise ``user_id``'s render planner of its best permitted tier
        (validated; ``None`` clears).  Shard-replicated like decimation."""
        if level is None:
            self._lod_hints.pop(user_id, None)
        else:
            from repro.avatar.lod import level_by_name
            level_by_name(level)  # raises KeyError before any state changes
            self._lod_hints[user_id] = level
        for shard in self.shards.values():
            shard.set_lod_hint(user_id, level)

    def lod_hint(self, user_id: str) -> Optional[str]:
        return self._lod_hints.get(user_id)

    def downlink(self, user_id: str, site: Optional[str] = None) -> Link:
        """The user's access downlink (home site by default).

        Public surface for fault injection and the adaptation loop's
        network probes (queue depth, loss state) — callers should not
        reach into the private link cache.
        """
        if site is None:
            federated = self.clients.get(user_id)
            site = federated.home if federated is not None \
                else self.home[user_id]
        return self._access_link(user_id, site, "down")

    def move_user(self, user_id: str, new_site: str) -> None:
        """Voluntary make-before-break handoff (the user moved regions)."""
        if new_site not in self.shards:
            raise KeyError(f"unknown site {new_site!r}")
        federated = self.clients[user_id]
        federated.migratable.migrate(
            self.shards[new_site], self._downlink_path(new_site, user_id))
        self.home[user_id] = new_site
        self.plan.assignment[user_id] = new_site
        self.plan.rtts[user_id] = 2.0 * self.access_delay(user_id, new_site)
        self.metrics.incr("handoffs_voluntary")

    # -- elasticity --------------------------------------------------------

    def add_site(self, site: str) -> SyncServer:
        """Provision a new shard at ``site`` and federate it.

        The shard gets a fresh (never reused) owner code, bidirectional
        relays to every existing shard, and — when the service is inside
        a :meth:`start` window — tick and relay processes armed for the
        remaining horizon, so a shard provisioned mid-run participates
        immediately and winds down with the rest of the fleet.  No users
        are moved; route them with :meth:`move_user` or admission-time
        placement.
        """
        if site in self.shards:
            raise ValueError(f"site {site!r} already provisioned")
        # Never reuse an owner code: ghosts tagged with a decommissioned
        # site's code must not suddenly read as owned by the newcomer.
        self.site_codes[site] = max(self.site_codes.values(), default=0) + 1
        shard = self._make_shard(site)
        # A shard provisioned mid-run must hold the same per-client
        # adaptation policy as the rest of the fleet (a user may fail
        # over or migrate onto it immediately).
        for user_id, factor in self._decimation.items():
            shard.set_snapshot_decimation(user_id, factor)
        for user_id, level in self._lod_hints.items():
            shard.set_lod_hint(user_id, level)
        self.shards[site] = shard
        if site not in self.plan.sites:
            self.plan.sites.append(site)
        new_relays: List[ShardRelay] = []
        for other in self.shards:
            if other == site:
                continue
            for src, dst in ((site, other), (other, site)):
                relay = self._make_relay(src, dst)
                self.relays[(src, dst)] = relay
                new_relays.append(relay)
        if self._run_until is not None and \
                self.sim.now < self._run_until - 1e-12:
            remaining = self._run_until - self.sim.now
            shard.run(duration=remaining)
            for relay in new_relays:
                self._relay_process(relay, remaining)
        self.metrics.incr("sites_provisioned")
        return shard

    def decommission_site(self, site: str) -> None:
        """Retire an empty shard: stop its tick and relays, drop it.

        Refuses while any attached client is homed on ``site`` (drain
        them first — :meth:`drain_site` does both steps) and refuses to
        remove the last shard.  Plan-assigned users who never attached
        are re-routed to their nearest surviving site.  Ghost copies of
        this shard's former entities may linger in other worlds until
        their authority republishes elsewhere — the same staleness the
        crash path tolerates.
        """
        if site not in self.shards:
            raise KeyError(f"unknown site {site!r}")
        survivors = [s for s in self.shards if s != site]
        if not survivors:
            raise ValueError("cannot decommission the last site")
        homed = sorted(
            user_id for user_id, federated in self.clients.items()
            if federated.home == site
        )
        if homed:
            raise ValueError(
                f"site {site!r} still serves {len(homed)} client(s) "
                f"({', '.join(homed[:5])}{'...' if len(homed) > 5 else ''}); "
                "drain them first")
        for user_id, assigned in list(self.home.items()):
            if assigned == site:
                self.home[user_id] = self.nearest_sites(user_id, survivors)[0]
                self.plan.assignment[user_id] = self.home[user_id]
        for key in [k for k in self.relays if site in k]:
            self.relays.pop(key).stopped = True
        self.shards.pop(site).stop()
        if site in self.plan.sites:
            self.plan.sites.remove(site)
        self.metrics.incr("sites_decommissioned")

    def drain_site(self, site: str) -> List[str]:
        """Move every client homed on ``site`` to its nearest surviving
        shard (make-before-break), then decommission the site.  Returns
        the drained user ids in migration order (sorted, so replays are
        byte-identical)."""
        if site not in self.shards:
            raise KeyError(f"unknown site {site!r}")
        survivors = [s for s in self.shards if s != site]
        if not survivors:
            raise ValueError("cannot drain the last site")
        drained = sorted(
            user_id for user_id, federated in self.clients.items()
            if federated.home == site
        )
        for user_id in drained:
            self.move_user(user_id, self.nearest_sites(user_id, survivors)[0])
        self.decommission_site(site)
        return drained

    def adopt_plan(self, plan: RegionalPlan) -> None:
        """Take over a reassigned plan (routing follows immediately)."""
        self.plan = plan
        self.home.update(plan.assignment)

    def rebalance(self, exclude: Sequence[str] = ()) -> RegionalPlan:
        """From-scratch placement around ``exclude`` d sites.

        Runs :func:`~repro.cloud.regions.plan_regions` with the current
        site set as candidates, excluded/crashed sites removed, then
        migrates every attached client whose assignment changed
        (make-before-break).  Requires the remote population.
        """
        if self.population is None:
            raise RuntimeError("rebalance requires the remote population")
        excluded = set(exclude) | {
            site for site, shard in self.shards.items() if shard.crashed
        }
        survivors = [site for site in self.shards if site not in excluded]
        if not survivors:
            raise ValueError("every site is excluded or crashed")
        new_plan = plan_regions(
            self.population, k=len(survivors), model=self.model,
            # sorted(): excluded is a set; its salted order must not
            # leak into the plan (the exclude tuple rides into
            # RegionalPlan params and seeded-replay comparisons).
            candidates=list(self.shards), exclude=tuple(sorted(excluded)),
        )
        self.adopt_plan(new_plan)
        for user_id, site in new_plan.assignment.items():
            federated = self.clients.get(user_id)
            if federated is not None and federated.home != site \
                    and not self.shards[federated.home].crashed:
                self.move_user(user_id, site)
        return new_plan

    # -- data path ------------------------------------------------------------

    def route_update(self, user_id: str, update: ClientUpdate) -> None:
        """Carry one client update to its home shard over the access link."""
        federated = self.clients.get(user_id)
        site = federated.home if federated is not None else self.home[user_id]
        self.home[user_id] = site
        self.entity_home[update.client_id] = site
        shard = self.shards[site]
        if self.sim.obs.enabled and update.ctx is not None:
            self._traced[update.client_id] = update.ctx
        packet = Packet(
            src=user_id, dst=site,
            size_bytes=max(1, update.size_bytes),
            kind="client_update", payload=update, created_at=self.sim.now,
        )
        if self.sim.obs.enabled and update.ctx is not None:
            packet.meta["obs_ctx"] = update.ctx
            packet.meta["obs_stage"] = "wan"
        self._access_link(user_id, site, "up").send(
            packet, lambda p: shard.ingest(p.payload))

    def ingest_local(self, site: str, update: ClientUpdate) -> None:
        """Server-side ingress for entities co-located with a shard
        (instructor consoles, NPC drivers): no access link, but the
        entity is homed so relays will federate it."""
        if site not in self.shards:
            raise KeyError(f"unknown site {site!r}")
        self.entity_home[update.client_id] = site
        if self.sim.obs.enabled and update.ctx is not None:
            self._traced[update.client_id] = update.ctx
        self.shards[site].ingest(update)

    def _downlink_path(
        self, site: str, user_id: str
    ) -> Callable[[ServerSnapshot], None]:
        def path(snapshot: ServerSnapshot) -> None:
            packet = Packet(
                src=site, dst=user_id,
                size_bytes=max(1, snapshot.size_bytes),
                kind="snapshot", payload=snapshot, created_at=self.sim.now,
            )
            if self.sim.obs.enabled and snapshot.trace:
                ctx, _ready_at = next(iter(snapshot.trace.values()))
                packet.meta["obs_ctx"] = ctx
                packet.meta["obs_stage"] = "downlink"
            self._access_link(user_id, site, "down").send(
                packet,
                lambda p: self._deliver_snapshot(user_id, site, p.payload))
        return path

    def _deliver_snapshot(
        self, user_id: str, site: str, snapshot: ServerSnapshot
    ) -> None:
        federated = self.clients.get(user_id)
        if federated is not None:
            federated.migratable.note_snapshot(snapshot, origin=site)

    # -- federation ------------------------------------------------------------

    def local_soa(self, site: str) -> tuple:
        """``(ids, slots, points, rows)`` of the entities authoritative on
        ``site``, straight off the shard world's SoA arrays; ``rows`` are
        their rows in the world's :meth:`~repro.sync.delta.WorldState.compact`
        order (what its cached per-row arrays index).

        The world's ``owners`` array screens out relay ghosts (tagged
        with their home shard's code) in one vectorized compare; only the
        surviving local slots pay a dict probe, which catches the brief
        window where an entity's authority moved away but its last local
        copy has not been superseded by the reverse relay yet.
        """
        world = self.shards[site].world
        ids, slots, points = world.compact()
        local_rows = np.flatnonzero(world.owners[slots] == OWNER_LOCAL)
        entity_home = self.entity_home
        keep = [
            int(row) for row in local_rows
            if entity_home.get(ids[row]) == site
        ]
        rows = np.asarray(keep, dtype=np.int64)
        return [ids[row] for row in keep], slots[rows], points[rows], rows

    def home_subscriber_digest(self, site: str) -> Dict[str, np.ndarray]:
        """Positions of the clients homed on ``site`` (relay subjects).

        Clients that have not yet published an entity query from the
        origin — matching what the shard's own tick assumes for a
        subscriber without a world entity.  Positions are read off the
        world's SoA position block and copied at send time: the digest
        rides a packet, and the world rewrites (and, after a removal,
        reuses) those rows before the packet is delivered.
        """
        world = self.shards[site].world
        digest: Dict[str, np.ndarray] = {}
        for user_id, federated in self.clients.items():
            if federated.home != site:
                continue
            slot = world.slot_of(user_id)
            digest[user_id] = (
                world.positions_arr[slot].copy() if slot is not None
                else _ORIGIN
            )
        return digest

    def _on_shard_delta_packet(self, packet: Packet) -> None:
        delta: ShardDelta = packet.payload
        reverse = self.relays.get((delta.dst_site, delta.src_site))
        if reverse is not None:
            reverse.remote_subjects = dict(delta.subscribers)
        shard = self.shards.get(delta.dst_site)
        if shard is None or shard.crashed:
            return
        ghost_owner = self.site_codes.get(delta.src_site, OWNER_LOCAL)
        for state in delta.states:
            shard.world.apply(state, owner=ghost_owner)
        for entity_id in delta.removed:
            if self.entity_home.get(entity_id) == delta.src_site:
                shard.world.remove(entity_id)
        if delta.trace and self.sim.obs.enabled:
            for entity_id, ctx in delta.trace.items():
                shard.trace_entity(entity_id, ctx)
        self.metrics.incr("shard_deltas_delivered")
        self.metrics.incr("shard_states_applied", len(delta.states))

    def _relay_process(self, relay: ShardRelay, duration: float):
        def step():
            if relay.stopped:
                return None  # endpoint decommissioned mid-run
            relay.fire()
            return self.relay_period

        return self.sim.every(duration, step)

    def start(self, duration: float) -> list:
        """Arm every shard's tick loop and every relay for ``duration``."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        self._run_until = self.sim.now + duration
        processes = [
            shard.run(duration=duration) for shard in self.shards.values()
        ]
        for key in sorted(self.relays):
            processes.append(self._relay_process(self.relays[key], duration))
        return processes

    # -- measurement ----------------------------------------------------------

    @property
    def sites(self) -> List[str]:
        return list(self.shards)

    def relay_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-directed-pair relay counters (deltas, states, bytes)."""
        return {
            f"{src}->{dst}": {
                "deltas_sent": relay.deltas_sent,
                "states_forwarded": relay.states_forwarded,
                "bytes_sent": relay.bytes_sent,
                "link_delivered": relay.link.stats.delivered,
            }
            for (src, dst), relay in self.relays.items()
        }

    def shard_tick_costs(self) -> Dict[str, float]:
        """Mean modeled tick cost per shard (seconds)."""
        costs: Dict[str, float] = {}
        for site, shard in self.shards.items():
            tracker = shard.metrics.tracker("tick_cost")
            summary = tracker.summary()
            costs[site] = summary.mean if summary.count else 0.0
        return costs


class ShardHandoffController:
    """Crash-driven re-homing across the federation.

    One :class:`~repro.sync.migration.FailoverController` per client
    watches snapshot freshness (the only signal a client has); standbys
    are every other shard, nearest first.  A service-side watcher polls
    shard health and, when a shard dies, rewrites the plan through
    :func:`~repro.cloud.regions.reassign_after_outage` (falling back to
    nearest-by-link-delay without a population) so future routing and
    late joiners land on surviving shards.  The measurable outcome is
    each affected client's bounded blackout
    (:attr:`MigratableClient.blackout_s`).
    """

    def __init__(
        self,
        sim: Simulator,
        service: ShardedSyncService,
        detection_timeout: float = 0.3,
        check_period: float = 0.05,
    ):
        if detection_timeout <= 0 or check_period <= 0:
            raise ValueError("detection_timeout and check_period must be positive")
        self.sim = sim
        self.service = service
        self.detection_timeout = detection_timeout
        self.check_period = check_period
        self.controllers: Dict[str, FailoverController] = {}
        self.dead_sites: List[str] = []
        self.events: List[Tuple[float, str, str]] = []

    def arm_failover(self) -> None:
        """Create the per-client failure detectors and standby queues."""
        service = self.service
        for user_id, federated in service.clients.items():
            controller = FailoverController(
                self.sim, federated.migratable,
                detection_timeout=self.detection_timeout,
                check_period=self.check_period,
            )
            standbys = service.nearest_sites(
                user_id,
                (site for site in service.shards if site != federated.home))
            for site in standbys:
                controller.add_standby(
                    service.shards[site],
                    service._downlink_path(site, user_id))
            self.controllers[user_id] = controller

    def _rehome_dead_site(self, dead_site: str) -> None:
        service = self.service
        if service.population is not None and \
                dead_site in service.plan.sites and len(service.plan.sites) > 1:
            new_plan = reassign_after_outage(
                service.plan, dead_site, service.population, service.model)
            service.adopt_plan(new_plan)
        else:
            survivors = [
                site for site, shard in service.shards.items()
                if not shard.crashed
            ]
            if not survivors:
                return
            for user_id, site in list(service.home.items()):
                if site == dead_site:
                    service.home[user_id] = service.nearest_sites(
                        user_id, survivors)[0]
        service.metrics.incr("handoffs_crash")
        self.events.append((self.sim.now, "rehome", dead_site))

    def run(self, duration: float) -> list:
        """Start every failure detector plus the shard-health watcher."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        if not self.controllers:
            self.arm_failover()
        processes = [
            controller.run(duration)
            for _user, controller in sorted(self.controllers.items())
        ]

        def watch():
            for site, shard in self.service.shards.items():
                if shard.crashed and site not in self.dead_sites:
                    self.dead_sites.append(site)
                    self._rehome_dead_site(site)
            return self.check_period

        processes.append(self.sim.every(duration, watch))
        return processes

    def blackouts(self) -> Dict[str, Optional[float]]:
        """Measured blackout per client that failed over (None: none yet)."""
        return {
            user_id: federated.migratable.blackout_s
            for user_id, federated in self.service.clients.items()
            if federated.migratable.failovers > 0
        }
