"""Federated regional sync shards with cross-shard interest relay.

Section 3.3's answer to worldwide scale is **regional servers**: WAN
round-trips in the hundreds of milliseconds make one authoritative
server untenable, so each user syncs against a nearby shard.
:class:`ShardedSyncService` runs one :class:`~repro.sync.server.SyncServer`
per site of a :class:`~repro.cloud.regions.RegionalPlan`, per-user access
links and per-site-pair inter-shard links whose delays come from the
:class:`~repro.net.latency.WanLatencyModel`, and a federation protocol
that keeps every client's view consistent:

* each client's :class:`~repro.sync.protocol.ClientUpdate` routes to its
  *home* shard over its access link;
* each source shard periodically fires its one :class:`ShardRelay` round
  for all its destinations (a pair to a shard added mid-run joins the
  source's round, on its phase): one interest query (the shards'
  :class:`~repro.sync.interest.InterestManager` policy) and one
  :class:`~repro.sync.delta.BatchDeltaEncoder` pass with a row per
  destination give each destination a **delta stream** of the
  source-homed entities relevant to its home subscribers, so only
  changed states cross the WAN; they materialize as *ghost* entities in
  the destination world, whose own interest/delta tick serves them;
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
from itertools import accumulate
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
_NO_SLOTS = np.empty(0, dtype=np.int64)

#: Wire bytes per subscriber-digest entry: 8-byte id hash + 3 x 4-byte
#: quantized coordinates.
DIGEST_ENTRY_BYTES = 20

#: Inter-shard link rate (bits/s): a datacenter-to-datacenter backbone.
INTER_SHARD_RATE_BPS = 1e9

#: One-way delays (s) for hand-built plans whose site names are not
#: world cities, or whose users have neither geography nor a planned RTT.
FALLBACK_INTER_SHARD_DELAY = 0.02
FALLBACK_ACCESS_DELAY = 0.005


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


@dataclass(eq=False)
class RelayPair:
    """What the relay keeps per directed shard pair."""

    src_site: str
    dst_site: str
    link: Link
    #: Latest digest from the destination: its home subscribers'
    #: positions, the subjects relevance is computed for.
    remote_subjects: Dict[str, np.ndarray] = field(default_factory=dict)
    seq: int = 0
    deltas_sent: int = 0
    states_forwarded: int = 0
    bytes_sent: int = 0
    #: ``((ids, slots, points), subject_points, relevant slots)`` of this
    #: destination's last interest answer, reused while inputs repeat.
    relevant: Optional[tuple] = None


@dataclass(eq=False)
class ShardRelay:
    """A source shard's one relay round over all its destinations.

    A firing does the source-side work once for all its ``pairs`` (one
    local SoA gather, one subscriber digest, one interest query, one
    :meth:`~repro.sync.delta.BatchDeltaEncoder.encode_batch` with a row
    per destination), then ships each destination its delta and the
    digest, in ``pairs`` order.
    """

    service: "ShardedSyncService"
    src_site: str
    pairs: List[RelayPair]

    def _relevant_slots(self, world, ids, slots, points, rows) -> list:
        """Each destination's slots of the local entities relevant to any
        of its subjects.  A destination whose inputs equal those of its
        last answer reuses it; one query over the others' stacked subjects
        answers the rest, as interest rows are per subject.  Id ranks
        restricted to the local ``rows`` keep the order the tie-break
        reads.  Answers of one round share its local ``(ids, slots,
        points)`` tuple, so a round checks each distinct one once."""
        relevant = [_NO_SLOTS] * len(self.pairs)
        queried = []
        local, checked = (ids, slots, points), []
        for i, pair in enumerate(self.pairs):
            if not pair.remote_subjects or not len(slots):
                continue
            subject_points = np.array(
                list(pair.remote_subjects.values()), dtype=float)
            cached = pair.relevant
            if cached is not None:
                same = next((v for k, v in checked if k is cached[0]), None)
                if same is None:
                    c_ids, c_slots, c_points = cached[0]
                    same = np.array_equal(c_points, points) \
                        and np.array_equal(c_slots, slots) and c_ids == ids
                    checked.append((cached[0], same))
                    local = cached[0] if same else local
                if same and np.array_equal(cached[1], subject_points):
                    relevant[i] = cached[2]
                    continue
            queried.append((i, subject_points))
        if queried:
            subjects = np.concatenate([subject for _i, subject in queried])
            offsets, flat = self.service.relay_interest.relevant_indices_batch(
                points, subjects, np.full(len(subjects), -1, dtype=np.int64),
                world.lexicographic_ranks()[rows])
            offsets, first = offsets.tolist(), 0
            for i, subject in queried:
                last = first + len(subject)
                relevant[i] = slots[np.unique(flat[offsets[first]:offsets[last]])]
                self.pairs[i].relevant = (local, subject, relevant[i])
                first = last
        return relevant

    def fire(self) -> Optional[List[ShardDelta]]:
        """One relay round; returns the deltas sent (None when idle)."""
        service = self.service
        src = service.shards.get(self.src_site)
        if not self.pairs or src is None or src.crashed:
            return None
        world = src.world
        relevant = self._relevant_slots(
            world, *service.local_soa(self.src_site))
        offsets = list(accumulate(map(len, relevant), initial=0))
        send_mask, full_flags, removed_lists = \
            service.relay_encoders[self.src_site].encode_batch(
                world, [pair.dst_site for pair in self.pairs], offsets,
                np.concatenate(relevant))
        digest = service.home_subscriber_digest(self.src_site)
        deltas = []
        for i, pair in enumerate(self.pairs):
            sent = relevant[i][send_mask[offsets[i]:offsets[i + 1]]]
            states = world.states_at(sent.tolist())
            if not states and not removed_lists[i] and not digest:
                continue
            delta = ShardDelta(
                src_site=self.src_site, dst_site=pair.dst_site, seq=pair.seq,
                states_bytes=int(world.wire_sizes[sent].sum()),
                states=states, removed=removed_lists[i], subscribers=digest,
                full=bool(full_flags[i]))
            pair.seq += 1
            packet = Packet(src=self.src_site, dst=pair.dst_site,
                            size_bytes=max(1, delta.size_bytes),
                            kind="shard_delta", payload=delta,
                            created_at=service.sim.now)
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
            pair.deltas_sent += 1
            pair.states_forwarded += len(states)
            pair.bytes_sent += delta.size_bytes
            pair.link.send(packet, service._on_shard_delta_packet)
            deltas.append(delta)
        return deltas or None


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
        :data:`FALLBACK_INTER_SHARD_DELAY` / :data:`FALLBACK_ACCESS_DELAY`.
    population:
        Optional :class:`~repro.workload.population.RemotePopulation`
        providing user geography, used for cross-site access delays and
        crash-time reassignment.  Without it access delays fall back to
        the plan's recorded RTTs.
    relay_rate_hz:
        How often each source shard's relay round (one for all its
        destinations) fires; by default at the shards' 20 Hz tick.

    Link propagation delays come from :attr:`model`, a
    :class:`~repro.net.latency.WanLatencyModel` sampled jitter-free, so
    the federation is a pure function of the seed.
    """

    def __init__(
        self,
        sim: Simulator,
        plan: RegionalPlan,
        population=None,
        *,
        relay_rate_hz: float = 20.0,
        interest_config: Optional[InterestConfig] = None,
        cost_model: ServerCostModel = ServerCostModel(),
        access_rate_bps: float = 50e6,
    ):
        if not plan.sites:
            raise ValueError("plan has no sites")
        if len(set(plan.sites)) != len(plan.sites):
            raise ValueError(f"duplicate sites in plan: {plan.sites}")
        if relay_rate_hz <= 0:
            raise ValueError("relay rate must be positive")
        self.sim = sim
        self.plan = plan
        self.population = population
        self.model = WanLatencyModel()
        self.name = "fed"
        self.interest_config = (
            interest_config if interest_config is not None else InterestConfig()
        )
        self.access_rate_bps = float(access_rate_bps)
        self.relay_period = 1.0 / relay_rate_hz
        self._cost_model = cost_model
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
        self.relays: Dict[Tuple[str, str], RelayPair] = {}
        for src in plan.sites:
            for dst in plan.sites:
                if src == dst:
                    continue
                self.relays[(src, dst)] = self._make_relay(src, dst)
        #: Per source shard, one encoder row per destination: its seen
        #: state and keyframe cadence survive regrouping into new rounds.
        self.relay_encoders: Dict[str, BatchDeltaEncoder] = {
            site: BatchDeltaEncoder() for site in plan.sites
        }
        self.relay_interest = InterestManager(self.interest_config)
        #: Each shard's one relay round, armed by start() or add_site; a
        #: round stops once it is no longer its source's entry here.
        self.rounds: Dict[str, ShardRelay] = {}
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
            self.sim, name=site,
            interest=InterestManager(self.interest_config),
            cost_model=self._cost_model,
        )

    def _make_relay(self, src: str, dst: str) -> RelayPair:
        return RelayPair(src, dst, Link(
            self.sim, INTER_SHARD_RATE_BPS,
            self._inter_shard_delay(src, dst),
            name=f"{self.name}:{src}->{dst}",
        ))

    # -- geography ---------------------------------------------------------

    def _inter_shard_delay(self, a: str, b: str) -> float:
        if a in WORLD_CITIES and b in WORLD_CITIES:
            return self.model.one_way_delay(
                WORLD_CITIES[a], WORLD_CITIES[b],
                CITY_REGIONS[a], CITY_REGIONS[b], sample_jitter=False,
            )
        return FALLBACK_INTER_SHARD_DELAY

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
        return FALLBACK_ACCESS_DELAY

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

    def lod_hint(self, user_id: str) -> Optional[str]:  # replint: ignore[ARCH003] -- test observer of the LOD knob
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
        relays to every existing shard, and — inside a :meth:`start`
        window — its tick process and relay round armed for the remaining
        horizon (the round on the add instant's phase), while each
        existing source's pair to it joins that source's live round.  So
        a shard provisioned mid-run participates at once and winds down
        with the rest of the fleet.  No users are moved; route them with
        :meth:`move_user` or admission-time placement.
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
        self.relay_encoders[site] = BatchDeltaEncoder()
        if site not in self.plan.sites:
            self.plan.sites.append(site)
        for other in self.shards:
            if other != site:
                for src, dst in ((site, other), (other, site)):
                    self.relays[(src, dst)] = self._make_relay(src, dst)
        if self._run_until is not None and \
                self.sim.now < self._run_until - 1e-12:
            remaining = self._run_until - self.sim.now
            shard.run(duration=remaining)
            for src, relay in self.rounds.items():
                relay.pairs = self._outgoing(src)
            self._relay_process(site, remaining)
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
        self.relays = {key: pair for key, pair in self.relays.items()
                       if site not in key}
        self.rounds.pop(site, None)
        for src, relay in self.rounds.items():
            relay.pairs = self._outgoing(src)
        del self.relay_encoders[site]
        for encoder in self.relay_encoders.values():
            encoder.forget(site)
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

    def rebalance(self, exclude: Sequence[str] = ()) -> RegionalPlan:  # replint: ignore[ARCH003] -- test-only, queued for deletion
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

        They are the shard's subscribers, in subscription order:
        :class:`~repro.sync.migration.MigratableClient`'s ``migrate`` and
        ``failover`` leave a client subscribed on exactly its current
        server.  Clients that have not yet published an entity query from
        the origin — matching what the shard's own tick assumes for a
        subscriber without a world entity.  Positions are gathered off
        the world's SoA position block in one copy at send time: the
        digest rides a packet, and the world rewrites (and, after a
        removal, reuses) those rows before the packet is delivered.
        """
        shard = self.shards[site]
        world = shard.world
        users = list(shard.subscriber_ids)
        slots = [world.slot_of(user_id) for user_id in users]
        rows = world.positions_arr[
            [0 if slot is None else slot for slot in slots]]
        return {user_id: _ORIGIN if slot is None else row
                for user_id, slot, row in zip(users, slots, rows)}

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

    def _outgoing(self, src: str) -> List[RelayPair]:
        """``src``'s relay pairs in ``(src, dst)`` order: its round's pairs."""
        return [pair for key, pair in sorted(self.relays.items())
                if key[0] == src]

    def _relay_process(self, src: str, duration: float):
        """Arm ``src``'s relay round for ``duration``; it ends early once
        it is no longer ``src``'s live round."""
        relay = self.rounds[src] = ShardRelay(self, src, self._outgoing(src))

        def step():
            if self.rounds.get(src) is not relay:
                return None  # decommissioned, or re-armed by a later start()
            if relay.pairs:  # a lone shard's round idles until a peer joins
                relay.fire()
            return self.relay_period

        return self.sim.every(duration, step)

    def start(self, duration: float) -> list:
        """Arm every shard's tick loop and its one relay round, over all
        its outgoing pairs, for ``duration``; :meth:`add_site` extends
        them to a shard added inside the window."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        self._run_until = self.sim.now + duration
        processes = [
            shard.run(duration=duration) for shard in self.shards.values()
        ]
        return processes + [self._relay_process(src, duration)
                            for src in sorted(self.shards)]

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
