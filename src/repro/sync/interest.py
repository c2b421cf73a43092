"""Interest management: which entities does each client need?

With thousands of participants, broadcasting everyone to everyone is
quadratic in bandwidth.  Relevance here is the classic area-of-
interest radius with a nearest-k cap — the scheme the C3a experiment
ablates against full broadcast.

The query side is backed by one uniform cell index (:func:`_cell_blocks`)
with cell size equal to the interest radius, so a radius query only
examines the 3x3x3 block of cells around the subject instead of every
entity in the world; a query of at most :data:`DENSE_MAX_PAIRS` pairs
examines the same block pairs from one dense mask instead, without the
index's fixed cost.  Either path cuts each row's nearest-k from the
distance matrix it already holds with one partition rule
(:func:`_nearest`).  The core is
:meth:`InterestManager.relevant_indices_batch`: one evaluation over the
stacked entity positions answers every subject as a CSR over entity
rows; the federation relays call it directly, and the sync server's
tick through :meth:`InterestManager.relevant_slots`, which reuses last
tick's rows that provably did not change.
:meth:`InterestManager.relevant_batch` and
:meth:`InterestManager.relevant` are id-keyed wrappers over the core,
and :class:`BroadcastInterest` overrides it with the no-filtering
answer.  :func:`naive_relevant` keeps the original O(N) linear scan as
the reference oracle the equivalence tests check the index against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Mapping, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.sync.delta import WorldState, concat_ranges

_EMPTY_INDICES = np.empty(0, dtype=np.int64)
_MAX_FLOAT = np.finfo(float).max

#: Offsets of the 3x3x3 neighbourhood; with ``cell_size >= radius`` every
#: entity within the radius of a query point lives in one of these cells.
_NEIGHBOUR_OFFSETS = np.array(list(product((-1, 0, 1), repeat=3)))

_UNINDEXABLE = ("interest positions must be finite, in cells spanning a box "
                "of fewer than 2^62 cells")


#: Largest ``subjects x entities`` query answered densely: one (s, n)
#: block mask and distance matrix, cut by :func:`_nearest` once, instead
#: of the cell index, whose fixed cost (key sort, per-cell loop) rules
#: small queries.  A federated relay round's stacked query (at most
#: 1,027 pairs on the benchmark workloads, on class-rush) falls below
#: it, the 2,000-avatar hall far above; DESIGN.md §7 has the crossover.
DENSE_MAX_PAIRS = 8192


def _squared_distances(points: np.ndarray, subjects: np.ndarray) -> np.ndarray:
    """Row-wise squared distances, in the query's exact float order."""
    d = points - subjects
    return (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]


def _pair_squared_distances(px: np.ndarray, py: np.ndarray, pz: np.ndarray,
                            qx: np.ndarray, qy: np.ndarray,
                            qz: np.ndarray) -> np.ndarray:
    """(queries, entities) squared distances from query ``(qx, qy, qz)``
    to entity ``(px, py, pz)``: the one float order both query paths
    use, so they keep and rank exactly the same pairs."""
    dx = px[None, :] - qx[:, None]
    dy = py[None, :] - qy[:, None]
    dz = pz[None, :] - qz[:, None]
    return (dx * dx + dy * dy) + dz * dz


def _indexable(cells: np.ndarray, query_cells: np.ndarray) -> tuple:
    """``(both, base, span)``: the floored entity and query cells stacked,
    and the corner and size of the box one cell around them.  A
    non-finite cell, or a box too large for the cell index's key
    arithmetic, is an error on either query path, so neither answers
    what the other refuses."""
    both = np.concatenate([cells, query_cells])
    low, high = both.min(axis=0).tolist(), both.max(axis=0).tolist()
    if not -2.0 ** 61 < min(low) <= max(high) < 2.0 ** 61:  # nan too
        raise ValueError(_UNINDEXABLE)
    base = [int(c) - 1 for c in low]
    span = [int(c) + 2 - b for c, b in zip(high, base)]
    if span[0] * span[1] * span[2] >= 1 << 62:
        raise ValueError(_UNINDEXABLE)
    return both, base, span


def _dense_block(cells: np.ndarray, query_cells: np.ndarray) -> np.ndarray:
    """(queries, entities) mask of the pairs the cell index hands out:
    entity j is in the 3x3x3 block of cells around query i's cell.  The
    cells are whole floats below 2^61, so a difference of at most one
    cell is exact in float arithmetic."""
    _indexable(cells, query_cells)
    block = np.abs(cells[None, :, 0] - query_cells[:, None, 0]) <= 1
    for a in (1, 2):
        block &= np.abs(cells[None, :, a] - query_cells[:, None, a]) <= 1
    return block


def _cell_blocks(cells: np.ndarray, query_cells: np.ndarray) -> tuple:
    """The one interest cell index, ``(order, group, lo, counts)``.

    ``cells`` and ``query_cells`` are floored cell coordinates.  Query i
    lies in distinct cell ``group[i]``, and ``cells[order[lo[g, m]:lo[g,
    m] + counts[g, m]]]`` are neighbour ``m`` of distinct cell ``g``.
    Keys are mixed-radix over the box one cell around both sets, so every
    key is in range and no neighbour aliases another cell."""
    both, base, span = _indexable(cells, query_cells)
    radix = np.array([span[1] * span[2], span[2], 1])
    keys = (both.astype(np.int64) - np.array(base)) @ radix
    order = np.argsort(keys[:len(cells)], kind="stable")
    sorted_keys = keys[order]
    uniq = np.unique(keys[len(cells):])
    group = np.searchsorted(uniq, keys[len(cells):])
    block = (uniq[:, None] + (_NEIGHBOUR_OFFSETS @ radix)[None, :]).ravel()
    lo = np.searchsorted(sorted_keys, block).reshape(len(uniq), -1)
    counts = np.searchsorted(sorted_keys, block, "right").reshape(
        len(uniq), -1) - lo
    return order, group, lo, counts


def _block_pairs(group: np.ndarray, counts: np.ndarray) -> int:
    """The pairs a query scans: each subject against its cell's block."""
    return int(np.bincount(group) @ counts.sum(axis=1))


def _nearest(sq: np.ndarray, out: np.ndarray, ranks: np.ndarray,
             limit: int) -> np.ndarray:
    """Mask of each row's first ``limit`` pairs by ``(distance, id
    rank)``, the order :func:`naive_relevant` sorts by: the one exact
    top-k of both query paths.

    ``sq`` holds (rows, cols) squared distances and is rooted in place;
    ``out`` marks the pairs no row may keep (outside the radius, or the
    row's own entity); ``ranks`` are the columns' id ranks.  A row keeps
    every pair up to its k-th distance, taken by one partition and
    clipped to the largest float, so a row with fewer than k pairs keeps
    exactly its own.  Only a row tied at its k-th distance then holds
    more than k, and drops its tied pairs of highest id rank."""
    if sq.shape[1] <= limit:
        return ~out
    dist = np.sqrt(sq, out=sq)
    np.copyto(dist, np.inf, where=out)
    kth = np.minimum(np.partition(dist, limit - 1, axis=1)[:, limit - 1:limit],
                     _MAX_FLOAT)
    keep = dist <= kth
    counts = np.count_nonzero(keep, axis=1)
    for row in np.flatnonzero(counts > limit):
        tied = np.flatnonzero(dist[row] == kth[row])
        drop = np.argsort(ranks[tied])[len(tied) + limit - counts[row]:]
        keep[row, tied[drop]] = False
    return keep


class _LastRows(NamedTuple):
    """One :meth:`InterestManager.relevant_slots` answer and its inputs:
    the world's ``version``, membership version, removal-log length,
    position block and live-slot mask then, and per subscriber its slot,
    query point, row and k-th member (-2: not needed by a test yet)."""

    world: WorldState
    config: "InterestConfig"
    membership: int
    subscriber_ids: List[str]
    self_slots: np.ndarray
    points: np.ndarray
    offsets: np.ndarray
    flat: np.ndarray
    kth: np.ndarray
    version: int
    log_len: int
    positions: np.ndarray
    alive: np.ndarray


@dataclass(frozen=True)
class InterestConfig:
    """Relevance policy parameters."""

    radius_m: float = 10.0
    max_entities: int = 50

    def __post_init__(self):
        if self.radius_m <= 0:
            raise ValueError("radius must be positive")
        if self.max_entities < 1:
            raise ValueError("max_entities must be >= 1")


def naive_relevant(
    config: InterestConfig,
    subject_id: str,
    subject_position: np.ndarray,
    positions: Mapping[str, np.ndarray],
) -> Set[str]:
    """Reference O(N) linear scan over every entity.

    This is the original (pre-index) relevance computation, kept as the
    oracle for the index/naive equivalence property tests and for
    documentation of the policy: the nearest ``max_entities`` entities
    within ``radius_m``; the subject itself is excluded; ties at equal
    distance break lexicographically by entity id.
    """
    subject_position = np.asarray(subject_position, dtype=float)
    candidates: List[tuple] = []
    for entity_id, position in positions.items():
        if entity_id == subject_id:
            continue
        distance = float(np.linalg.norm(np.asarray(position, dtype=float)
                                        - subject_position))
        if distance <= config.radius_m:
            candidates.append((distance, entity_id))
    candidates.sort()
    return {entity_id for _d, entity_id in candidates[: config.max_entities]}


class InterestManager:
    """Computes each subscriber's relevant entity set via a cell index
    (densely for small queries)."""

    def __init__(self, config: InterestConfig = InterestConfig()):
        self.config = config
        #: Candidate (subscriber, entity) pairs examined by the most recent
        #: query; the server's cost model charges ``per_entity_scan`` for
        #: each, so modeled tick cost tracks actual index work, not N x N.
        self.last_pairs_scanned = 0
        self._sq_limit: Optional[Tuple[float, float]] = None
        #: The last :meth:`relevant_slots` answer, reused row by row.
        self._last: Optional[_LastRows] = None

    def sq_limit(self) -> float:
        """Largest squared distance whose correctly-rounded sqrt still
        passes ``dist <= radius``, cached per radius: sqrt is monotone, so
        ``sq <= sq_limit`` keeps exactly the pairs ``dist <= radius``
        would, and only the nearest-k ranking takes a sqrt."""
        radius = self.config.radius_m
        if self._sq_limit is None or self._sq_limit[0] != radius:
            sq_limit = radius * radius
            while np.sqrt(sq_limit) > radius:
                sq_limit = np.nextafter(sq_limit, 0.0)
            while np.sqrt(np.nextafter(sq_limit, np.inf)) <= radius:
                sq_limit = np.nextafter(sq_limit, np.inf)
            self._sq_limit = (radius, sq_limit)
        return self._sq_limit[1]

    # -- queries -----------------------------------------------------------

    def relevant(
        self,
        subject_id: str,
        subject_position: np.ndarray,
        positions: Mapping[str, np.ndarray],
    ) -> Set[str]:
        """Entity ids relevant to ``subject_id``.

        The subject itself is excluded.  Thin single-subject wrapper over
        :meth:`relevant_batch`.
        """
        batch = self.relevant_batch(
            positions, {subject_id: np.asarray(subject_position, dtype=float)}
        )
        return batch[subject_id]

    def relevant_indices_batch(
        self,
        points: np.ndarray,
        subject_points: np.ndarray,
        subject_self: np.ndarray,
        id_ranks: np.ndarray,
    ) -> tuple:
        """Relevance as a CSR over entity *indices* — the vectorized core.

        ``points`` is the (n, 3) stacked entity block (e.g. straight from
        ``WorldState.compact``); ``subject_points`` the (s, 3) query
        points; ``subject_self[i]`` the row of subject i in ``points`` (-1
        when the subject is not an entity, e.g. a disembodied spectator);
        ``id_ranks[j]`` the rank of entity j under lexicographic
        id order (distance ties break by id, exactly as
        :func:`naive_relevant`).

        Returns ``(offsets, flat)``: subject i's relevant entity rows are
        ``flat[offsets[i]:offsets[i + 1]]``, in no particular order.  A
        query of at most :data:`DENSE_MAX_PAIRS` pairs is answered
        densely (:meth:`_dense_nearest`), a larger one through the cell
        index (:meth:`_indexed_nearest`); both scan, keep and rank the
        same pairs with the same arithmetic, so the answer and
        ``last_pairs_scanned`` do not depend on the path.
        """
        n = len(points)
        s = len(subject_points)
        subject_self = np.asarray(subject_self, dtype=np.int64)
        if n and s:
            size = self.config.radius_m
            subject_points = np.asarray(subject_points, dtype=float)
            cells = np.floor(points / size)
            query_cells = np.floor(subject_points / size)
            nearest = self._dense_nearest if s * n <= DENSE_MAX_PAIRS \
                else self._indexed_nearest
            cand, subj = nearest(points, subject_points, cells, query_cells,
                                 subject_self, id_ranks)
        else:
            cand = subj = _EMPTY_INDICES
            self.last_pairs_scanned = 0
        counts = np.bincount(subj, minlength=s)
        offsets = np.concatenate(
            ([0], np.cumsum(counts))).astype(np.int64)
        return offsets, cand

    def _dense_nearest(self, points: np.ndarray, subject_points: np.ndarray,
                       cells: np.ndarray, query_cells: np.ndarray,
                       subject_self: np.ndarray,
                       id_ranks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(cand, subj)`` of a small query, grouped by subject, from one
        (s, n) block mask and distance matrix cut by :func:`_nearest`.
        The mask holds exactly the pairs the cell index would scan."""
        block = _dense_block(cells, query_cells)
        self.last_pairs_scanned = int(np.count_nonzero(block))
        sq = _pair_squared_distances(
            points[:, 0], points[:, 1], points[:, 2],
            subject_points[:, 0], subject_points[:, 1], subject_points[:, 2])
        out = ~block | (sq > self.sq_limit())
        own = (subject_self >= 0).nonzero()[0]
        out[own, subject_self[own]] = True
        subj, cand = _nearest(sq, out, id_ranks,
                              self.config.max_entities).nonzero()
        return cand, subj

    def _indexed_nearest(self, points: np.ndarray,
                         subject_points: np.ndarray, cells: np.ndarray,
                         query_cells: np.ndarray, subject_self: np.ndarray,
                         id_ranks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(cand, subj)`` of a large query, grouped by subject, through
        the cell index: one dense distance matrix per distinct subject
        cell against its block, cut by :func:`_nearest` in place."""
        index, group, lo, block_counts = _cell_blocks(cells, query_cells)
        self.last_pairs_scanned = _block_pairs(group, block_counts)
        # Subjects sharing a cell share their candidate block: one
        # gather takes every distinct cell's block as one slice.
        blocks = index[concat_ranges(lo.ravel(), block_counts.ravel())]
        sizes = block_counts.sum(axis=1)
        block_bounds = np.concatenate(([0], np.cumsum(sizes)))
        order = np.argsort(group, kind="stable")
        bounds = np.searchsorted(group[order], np.arange(len(sizes) + 1))
        px, py, pz = (np.ascontiguousarray(points[:, a]) for a in range(3))
        qx, qy, qz = (np.ascontiguousarray(subject_points[:, a])
                      for a in range(3))
        sq_limit = self.sq_limit()
        limit = self.config.max_entities
        cand_parts: List[np.ndarray] = []
        subj_parts: List[np.ndarray] = []
        for g in np.flatnonzero(sizes):
            sg = order[bounds[g]:bounds[g + 1]]
            block = blocks[block_bounds[g]:block_bounds[g + 1]]
            # Dense (subjects-in-cell, block) broadcast: no
            # million-element index gathers.
            sq = _pair_squared_distances(px[block], py[block], pz[block],
                                         qx[sg], qy[sg], qz[sg])
            out = (sq > sq_limit) \
                | (block[None, :] == subject_self[sg][:, None])
            si, ci = np.nonzero(_nearest(sq, out, id_ranks[block], limit))
            cand_parts.append(block[ci])
            subj_parts.append(sg[si])
        if not cand_parts:
            return _EMPTY_INDICES, _EMPTY_INDICES
        cand = np.concatenate(cand_parts)
        subj = np.concatenate(subj_parts)
        # Regroup by subject — the per-cell pass enumerates subjects out
        # of order.
        regroup = np.argsort(subj, kind="stable")
        return cand[regroup], subj[regroup]

    def pairs_scanned(self, points: np.ndarray,
                      subject_points: np.ndarray) -> int:
        """The pairs :meth:`relevant_indices_batch` scans for these
        subjects, from cell occupancy alone: no distance is taken."""
        if not len(points) or not len(subject_points):
            return 0
        size = self.config.radius_m
        cells = np.floor(points / size)
        query_cells = np.floor(subject_points / size)
        if len(points) * len(subject_points) <= DENSE_MAX_PAIRS:
            return int(np.count_nonzero(_dense_block(cells, query_cells)))
        _order, group, _lo, counts = _cell_blocks(cells, query_cells)
        return _block_pairs(group, counts)

    def relevant_slots(self, world: WorldState,
                       subscriber_ids: List[str]) -> tuple:
        """Every subscriber's relevant entities as ascending world *slots*,
        ``(offsets, flat_slots, pairs_scanned)``.

        Subscriber i queries from its own entity's position (the origin
        when it has none) and never sees itself.  Rows :meth:`_stale_rows`
        vouches for are the last call's; one :meth:`relevant_indices_batch`
        over the other subjects answers the rest.  ``pairs_scanned`` is
        what a fresh query over every subscriber scans, so a cost charged
        for it does not see the reuse.
        """
        _ids, slots, points = world.compact()
        s = len(subscriber_ids)
        last = self._last if self._last is not None \
            and self._last.world is world else None
        compact_of = np.full(world.capacity, -1, dtype=np.int64)
        compact_of[slots] = np.arange(len(slots), dtype=np.int64)
        same_subscribers = last is not None \
            and last.subscriber_ids == subscriber_ids
        if same_subscribers:
            prev = np.arange(s, dtype=np.int64)
        else:
            index = {} if last is None else \
                {sub: i for i, sub in enumerate(last.subscriber_ids)}
            prev = np.fromiter((index.get(sub, -1) for sub in subscriber_ids),
                               dtype=np.int64, count=s)
        if same_subscribers and last.membership == world.membership_version:
            self_slots = last.self_slots  # slots move only with membership
        else:
            self_slots = np.fromiter(
                ((-1 if (slot := world.slot_of(sub)) is None else slot)
                 for sub in subscriber_ids), dtype=np.int64, count=s)
        subject_points = np.where((self_slots >= 0)[:, None],
                                  world.positions_arr[self_slots], 0.0)
        ranks = world.lexicographic_ranks()
        stale = self._stale_rows(world, last, prev, self_slots,
                                 subject_points, compact_of, ranks)
        fresh = np.flatnonzero(stale)
        fresh_offsets, fresh_flat = self.relevant_indices_batch(
            points, subject_points[fresh],
            np.where(self_slots >= 0, compact_of[self_slots], -1)[fresh],
            ranks)
        pairs = self.last_pairs_scanned if len(fresh) == s \
            else self.pairs_scanned(points, subject_points)
        fresh_counts = np.diff(fresh_offsets)
        fresh_slots = np.sort((np.repeat(fresh, fresh_counts) << np.int64(32))
                              | slots[fresh_flat]) & np.int64(0xFFFFFFFF)
        # Splice the kept rows of the last answer with the fresh ones.
        old_offsets, old_flat, old_kth = (
            (np.zeros(1, dtype=np.int64), _EMPTY_INDICES, _EMPTY_INDICES)
            if last is None else (last.offsets, last.flat, last.kth))
        kept = np.flatnonzero(~stale)
        counts = np.empty(s, dtype=np.int64)
        starts = np.empty(s, dtype=np.int64)
        kth = np.full(s, -2, dtype=np.int64)
        counts[kept] = np.diff(old_offsets)[prev[kept]]
        starts[kept] = old_offsets[prev[kept]]
        kth[kept] = old_kth[prev[kept]]
        counts[fresh] = fresh_counts
        starts[fresh] = len(old_flat) + fresh_offsets[:-1]
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        flat_slots = np.concatenate([old_flat, fresh_slots])[
            concat_ranges(starts, counts)]
        self._last = _LastRows(
            world, self.config, world.membership_version,
            list(subscriber_ids), self_slots, subject_points, offsets,
            flat_slots, kth, world.version, len(world.removal_log),
            world.positions_arr.copy(), compact_of >= 0)
        return offsets, flat_slots, pairs

    def _stale_rows(self, world: WorldState, last: Optional[_LastRows],
                    prev: np.ndarray, self_slots: np.ndarray,
                    subject_points: np.ndarray, compact_of: np.ndarray,
                    ranks: np.ndarray) -> np.ndarray:
        """Which subjects' rows from ``last`` may differ from a fresh query.

        A slot *changed* if written since ``last`` (stamp newer than
        ``last.version``) and it moved or changed hands.  A row is kept
        only if its subject was answered last call from the same slot and
        point and no changed slot crossed the row's boundary: it was in the
        row iff its entity now is inside the radius and ahead of the row's
        k-th member by ``(distance, id rank)`` (below the cap: inside the
        radius).  Every other key is unchanged, so the set is too; a
        changed k-th member is never ahead of itself.  Only subjects in the
        27-cell block of a changed slot's old or new cell are tested, with
        the query's own distance arithmetic.
        """
        if last is None or last.config != self.config or not len(ranks):
            return np.ones(len(prev), dtype=bool)
        stale = prev < 0
        known = np.flatnonzero(~stale)
        stale[known] = (last.self_slots[prev[known]] != self_slots[known]) \
            | np.any(last.points[prev[known]] != subject_points[known], axis=1)
        clean = np.flatnonzero(~stale)
        changed = np.flatnonzero(world.stamps > last.version)
        if not len(clean) or not len(changed):
            return stale
        new_pos = world.positions_arr[changed]
        old_pos = new_pos.copy()
        renewed = np.ones(len(changed), dtype=bool)
        had = changed < len(last.alive)
        old_pos[had] = last.positions[changed[had]]
        renewed[had] = ~last.alive[changed[had]]
        renewed |= np.isin(changed, [slot for _id, slot
                                     in world.removal_log[last.log_len:]])
        moved = renewed | np.any(old_pos != new_pos, axis=1)
        if not moved.any():
            return stale
        changed, new_pos, old_pos = changed[moved], new_pos[moved], \
            old_pos[moved]
        size = self.config.radius_m
        subject_cells = np.floor(subject_points[clean] / size)
        new_cells = np.floor(new_pos / size)
        old_cells = np.floor(old_pos / size)
        crossed = np.flatnonzero(np.any(old_cells != new_cells, axis=1))
        order, group, lo, counts = _cell_blocks(
            subject_cells, np.concatenate([new_cells, old_cells[crossed]]))
        lo, counts = lo[group], counts[group]  # one block per changed cell
        near = order[concat_ranges(lo.ravel(), counts.ravel())]
        at = np.repeat(np.concatenate([np.arange(len(changed)), crossed]),
                       counts.sum(axis=1))
        subj, slot = clean[near], changed[at]
        p = prev[subj]
        last_keys = (np.repeat(
            np.arange(len(last.offsets) - 1, dtype=np.int64),
            np.diff(last.offsets)) << np.int64(32)) | last.flat
        wanted = (p << np.int64(32)) | slot
        was = np.append(last_keys, -1)[
            np.searchsorted(last_keys, wanted)] == wanted

        def rank(x: np.ndarray) -> np.ndarray:
            return ranks[compact_of[x]]

        unknown = np.unique(subj[last.kth[p] == -2])
        if len(unknown):
            # A row's k-th member: its largest (distance, id rank) member
            # if it holds max_entities of them, else -1.  Taken at the last
            # call's positions, for which each row was exact; every member
            # is alive unless the test below marks the row stale anyway.
            k, q = self.config.max_entities, prev[unknown]
            counts = np.diff(last.offsets)[q]
            members = last.flat[concat_ranges(last.offsets[q], counts)]
            full = counts == k
            members = members[np.repeat(full, counts)].reshape(-1, k)
            dist = np.sqrt(_squared_distances(
                last.positions[members.ravel()], np.repeat(
                    subject_points[unknown[full]], k, axis=0))).reshape(-1, k)
            ranked = np.where(dist == dist.max(axis=1, keepdims=True),
                              rank(members), -1)
            last.kth[q] = -1
            last.kth[q[full]] = members[np.arange(len(members)),
                                        ranked.argmax(axis=1)]
        kth = last.kth[p]
        point = subject_points[subj]
        sq = _squared_distances(world.positions_arr[slot], point)
        dist = np.sqrt(sq)
        kth_dist = np.sqrt(_squared_distances(world.positions_arr[kth], point))
        now = (compact_of[slot] >= 0) & (sq <= self.sq_limit()) \
            & np.all(np.abs(new_cells[at] - subject_cells[near]) <= 1,
                     axis=1) \
            & ((kth < 0) | (dist < kth_dist)
               | ((dist == kth_dist) & (rank(slot) < rank(kth))))
        stale[subj[was != now]] = True
        return stale

    def relevant_batch(
        self,
        positions: Mapping[str, np.ndarray],
        subjects: Optional[Mapping[str, np.ndarray]] = None,
    ) -> Dict[str, Set[str]]:
        """Relevant sets for many subjects against one index build.

        ``positions`` maps entity id to (3,) position; ``subjects`` maps
        each query subject to its query point (defaulting to ``positions``
        itself, i.e. every entity queries from where it stands — subjects
        need not be entities, e.g. disembodied spectators).  Thin mapping
        wrapper over :meth:`relevant_indices_batch`; results are identical
        to :func:`naive_relevant`.
        """
        if subjects is None:
            subjects = positions
        ids = list(positions)
        index = {entity_id: i for i, entity_id in enumerate(ids)}
        if ids:
            points = np.stack([
                np.asarray(positions[i], dtype=float) for i in ids
            ])
        else:
            points = np.empty((0, 3), dtype=float)
        subject_ids = list(subjects)
        if subject_ids:
            subject_points = np.stack([
                np.asarray(subjects[i], dtype=float) for i in subject_ids
            ])
        else:
            subject_points = np.empty((0, 3), dtype=float)
        subject_self = np.fromiter(
            (index.get(subject_id, -1) for subject_id in subject_ids),
            dtype=np.int64, count=len(subject_ids))
        order = sorted(range(len(ids)), key=ids.__getitem__)
        id_ranks = np.empty(len(ids), dtype=np.int64)
        id_ranks[np.asarray(order, dtype=np.int64)] = np.arange(
            len(ids), dtype=np.int64)
        offsets, flat = self.relevant_indices_batch(
            points, subject_points, subject_self, id_ranks)
        return {
            subject_id: {ids[j] for j in flat[offsets[i]:offsets[i + 1]]}
            for i, subject_id in enumerate(subject_ids)
        }


class BroadcastInterest(InterestManager):
    """The no-filtering baseline: everyone is relevant to everyone.

    The C3a ablation arm.  It speaks the same indices API as the indexed
    manager, so a :class:`~repro.sync.server.SyncServer` runs it through
    its one tick; the query scans, and reports, all ``s x n`` pairs.
    """

    def relevant_indices_batch(
        self,
        points: np.ndarray,
        subject_points: np.ndarray,
        subject_self: np.ndarray,
        id_ranks: np.ndarray,
    ) -> tuple:
        """Every entity row except subject i's own, for every subject i."""
        n = len(points)
        s = len(subject_points)
        subject_self = np.asarray(subject_self, dtype=np.int64)
        cand = np.tile(np.arange(n, dtype=np.int64), s)
        subj = np.repeat(np.arange(s, dtype=np.int64), n)
        keep = cand != subject_self[subj]
        counts = np.bincount(subj[keep], minlength=s)
        self.last_pairs_scanned = s * n
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        return offsets, cand[keep]

    def pairs_scanned(self, points: np.ndarray,
                      subject_points: np.ndarray) -> int:
        return len(subject_points) * len(points)

    def _stale_rows(self, world, last, prev, *_inputs) -> np.ndarray:
        return np.ones(len(prev), dtype=bool)  # recompute every row
