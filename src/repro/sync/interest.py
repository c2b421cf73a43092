"""Interest management: which entities does each client need?

With thousands of participants, broadcasting everyone to everyone is
quadratic in bandwidth.  Relevance here combines the classic area-of-
interest radius with a nearest-k cap and an always-relevant set (the
instructor, active speakers) — the scheme the C3a experiment ablates
against full broadcast.

The query side is backed by a uniform spatial hash grid
(:class:`SpatialHashGrid`) with cell size equal to the interest radius,
so a radius query only examines the 3x3x3 block of cells around the
subject instead of every entity in the world.  The core is
:meth:`InterestManager.relevant_indices_batch`: one grid build per
tick over the stacked entity positions answers every subscriber as a
CSR over entity rows, which is what the sync server and the federation
relays call.  :meth:`InterestManager.relevant_batch` and
:meth:`InterestManager.relevant` are id-keyed wrappers over it, and
:class:`BroadcastInterest` overrides the core with the no-filtering
answer.  :func:`naive_relevant` keeps the original O(N) linear scan as
the reference oracle the equivalence tests check the grid against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

_EMPTY_INDICES = np.empty(0, dtype=np.int64)

#: Offsets of the 3x3x3 neighbourhood; with ``cell_size >= radius`` every
#: entity within the radius of a query point lives in one of these cells.
_NEIGHBOUR_OFFSETS = tuple(product((-1, 0, 1), repeat=3))


@dataclass(frozen=True)
class InterestConfig:
    """Relevance policy parameters."""

    radius_m: float = 10.0
    max_entities: int = 50
    always_relevant: frozenset = field(default_factory=frozenset)

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

    This is the original (pre-grid) relevance computation, kept as the
    oracle for the grid/naive equivalence property tests and for
    documentation of the policy: always-relevant ids are unconditionally
    included and do not count against the nearest-k cap; the subject
    itself is excluded; ties at equal distance break lexicographically
    by entity id.
    """
    subject_position = np.asarray(subject_position, dtype=float)
    always = {
        entity_id
        for entity_id in config.always_relevant
        if entity_id in positions and entity_id != subject_id
    }
    candidates: List[tuple] = []
    for entity_id, position in positions.items():
        if entity_id == subject_id or entity_id in always:
            continue
        distance = float(np.linalg.norm(np.asarray(position, dtype=float)
                                        - subject_position))
        if distance <= config.radius_m:
            candidates.append((distance, entity_id))
    candidates.sort()
    nearest = {entity_id for _d, entity_id in candidates[: config.max_entities]}
    return always | nearest


class SpatialHashGrid:
    """Uniform spatial hash over a fixed set of entity positions.

    Entities are bucketed into cubic cells of ``cell_size`` metres keyed
    by their floored integer coordinates.  Built once per tick from the
    stacked (N, 3) position array; a query gathers the candidate index
    arrays of the 27 cells around a point, which is exhaustive for any
    radius <= ``cell_size``.
    """

    def __init__(self, ids: List[str], points: np.ndarray, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        self.ids = ids
        self.points = points
        self.cell_size = cell_size
        self._cells: Dict[tuple, np.ndarray] = {}
        if len(ids):
            cells = np.floor(points / cell_size).astype(np.int64)
            order = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0]))
            sorted_cells = cells[order]
            change = np.nonzero(
                np.any(sorted_cells[1:] != sorted_cells[:-1], axis=1)
            )[0] + 1
            starts = np.concatenate(([0], change))
            ends = np.concatenate((change, [len(order)]))
            keys = sorted_cells[starts].tolist()
            self._cells = {
                tuple(key): order[s:e]
                for key, s, e in zip(keys, starts, ends)
            }

    @classmethod
    def from_positions(
        cls, positions: Mapping[str, np.ndarray], cell_size: float
    ) -> "SpatialHashGrid":
        """Stack a ``{id: (3,) position}`` mapping into a grid."""
        ids = list(positions)
        if ids:
            points = np.array([positions[i] for i in ids], dtype=float)
        else:
            points = np.empty((0, 3), dtype=float)
        return cls(ids, points, cell_size)

    @property
    def n_cells(self) -> int:
        return len(self._cells)

    def __len__(self) -> int:
        return len(self.ids)

    def candidate_indices(self, point: np.ndarray) -> np.ndarray:
        """Indices of entities in the 3x3x3 cell block around ``point``."""
        if not self._cells:
            return _EMPTY_INDICES
        base = np.floor(np.asarray(point, dtype=float) / self.cell_size)
        cx, cy, cz = int(base[0]), int(base[1]), int(base[2])
        chunks = []
        for dx, dy, dz in _NEIGHBOUR_OFFSETS:
            bucket = self._cells.get((cx + dx, cy + dy, cz + dz))
            if bucket is not None:
                chunks.append(bucket)
        if not chunks:
            return _EMPTY_INDICES
        if len(chunks) == 1:
            return chunks[0]
        return np.concatenate(chunks)


class InterestManager:
    """Computes each subscriber's relevant entity set via a spatial grid."""

    def __init__(self, config: InterestConfig = InterestConfig()):
        self.config = config
        #: Candidate (subscriber, entity) pairs examined by the most recent
        #: query; the server's cost model charges ``per_entity_scan`` for
        #: each, so modeled tick cost tracks actual grid work, not N x N.
        self.last_pairs_scanned = 0

    # -- queries -----------------------------------------------------------

    def relevant(
        self,
        subject_id: str,
        subject_position: np.ndarray,
        positions: Mapping[str, np.ndarray],
    ) -> Set[str]:
        """Entity ids relevant to ``subject_id``.

        Always-relevant ids are unconditionally included and do not count
        against the nearest-k cap; the subject itself is excluded.  Thin
        single-subject wrapper over :meth:`relevant_batch`.
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
        always_indices: np.ndarray,
        id_ranks: np.ndarray,
    ) -> tuple:
        """Relevance as a CSR over entity *indices* — the vectorized core.

        ``points`` is the (n, 3) stacked entity block (e.g. straight from
        ``WorldState.compact``); ``subject_points`` the (s, 3) query
        points; ``subject_self[i]`` the row of subject i in ``points`` (-1
        when the subject is not an entity, e.g. a disembodied spectator);
        ``always_indices`` the rows of the always-relevant entities
        present; ``id_ranks[j]`` the rank of entity j under lexicographic
        id order (distance ties break by id, exactly as
        :func:`naive_relevant`).

        Returns ``(offsets, flat)``: subject i's relevant entity rows are
        ``flat[offsets[i]:offsets[i + 1]]``.  One grid build, one fused
        distance computation over every (subject, candidate) pair, and one
        global lexsort replace the per-subject Python ranking loop.
        """
        n = len(points)
        s = len(subject_points)
        subject_self = np.asarray(subject_self, dtype=np.int64)
        always_indices = np.asarray(always_indices, dtype=np.int64)
        if n == 0 or s == 0:
            counts = np.zeros(s, dtype=np.int64)
            self.last_pairs_scanned = 0
        else:
            grid = SpatialHashGrid([None] * n, points, self.config.radius_m)
            subject_points = np.asarray(subject_points, dtype=float)
            # Subjects sharing a grid cell share their candidate block:
            # gather once per distinct cell, not once per subject.  Pack
            # (cx, cy, cz) into one int64 so the distinct-cell pass is a
            # 1-D sort instead of the much slower row-wise unique; 21
            # bits per biased coordinate cover cells in [-2^20, 2^20).
            # A cell outside would carry into its neighbour field and
            # alias another cell, so it is an error, not a wrong answer.
            cells = np.floor(subject_points / grid.cell_size).astype(np.int64)
            bias = np.int64(1 << 20)
            if cells.min() < -bias or cells.max() >= bias:
                raise ValueError(
                    "subject position outside the interest grid's range: "
                    "cell coordinates must lie in [-2^20, 2^20) cells of "
                    f"{grid.cell_size} m")
            packed = (((cells[:, 0] + bias) << np.int64(42))
                      | ((cells[:, 1] + bias) << np.int64(21))
                      | (cells[:, 2] + bias))
            uniq, group = np.unique(packed, return_inverse=True)
            group = group.reshape(-1)
            order = np.argsort(group, kind="stable")
            bounds = np.searchsorted(
                group[order], np.arange(len(uniq) + 1))
            px, py, pz = (np.ascontiguousarray(points[:, a])
                          for a in range(3))
            qx, qy, qz = (np.ascontiguousarray(subject_points[:, a])
                          for a in range(3))
            is_always = np.zeros(n, dtype=bool)
            is_always[always_indices] = True
            radius = self.config.radius_m
            # Largest squared distance whose correctly-rounded sqrt still
            # passes ``dist <= radius``: sqrt is monotone, so testing
            # ``sq <= sq_limit`` keeps exactly the pairs ``dist <= radius``
            # would, and the sqrt itself can be deferred to the much
            # smaller kept set without changing a single bit.
            sq_limit = radius * radius
            while np.sqrt(sq_limit) > radius:
                sq_limit = np.nextafter(sq_limit, 0.0)
            while np.sqrt(np.nextafter(sq_limit, np.inf)) <= radius:
                sq_limit = np.nextafter(sq_limit, np.inf)
            cand_parts: List[np.ndarray] = []
            subj_parts: List[np.ndarray] = []
            dist_parts: List[np.ndarray] = []
            total = 0
            for g in range(len(uniq)):
                sg = order[bounds[g]:bounds[g + 1]]
                block = grid.candidate_indices(
                    cells[sg[0]] * grid.cell_size + 0.5 * grid.cell_size)
                if not len(block):
                    continue
                total += len(sg) * len(block)
                # Dense (subjects-in-cell, block) broadcast: identical
                # differences and float evaluation order to the pairwise
                # form, with no million-element index gathers.
                dx = px[block][None, :] - qx[sg][:, None]
                dy = py[block][None, :] - qy[sg][:, None]
                dz = pz[block][None, :] - qz[sg][:, None]
                sq = (dx * dx + dy * dy) + dz * dz
                keep = (sq <= sq_limit) \
                    & (block[None, :] != subject_self[sg][:, None]) \
                    & ~is_always[block][None, :]
                si, ci = np.nonzero(keep)
                cand_parts.append(block[ci])
                subj_parts.append(sg[si])
                dist_parts.append(sq[si, ci])
            self.last_pairs_scanned = total
            if cand_parts:
                cand = np.concatenate(cand_parts)
                subj = np.concatenate(subj_parts)
                dist = np.sqrt(np.concatenate(dist_parts))
                cand, subj = self._select_nearest(
                    cand, subj, dist, s, id_ranks)
                # Regroup by subject for the CSR — the per-cell pass
                # enumerates subjects out of order.
                regroup = np.argsort(subj, kind="stable")
                cand, subj = cand[regroup], subj[regroup]
                counts = np.bincount(subj, minlength=s)
            else:
                cand = _EMPTY_INDICES
                counts = np.zeros(s, dtype=np.int64)
        # Union in the always-relevant entities (minus the subject itself).
        if len(always_indices) and s:
            a_cand = np.tile(always_indices, s)
            a_subj = np.repeat(np.arange(s, dtype=np.int64),
                               len(always_indices))
            a_keep = a_cand != subject_self[a_subj]
            a_cand, a_subj = a_cand[a_keep], a_subj[a_keep]
            if n == 0 or not counts.sum():
                base_cand = np.empty(0, dtype=np.int64)
                base_subj = np.empty(0, dtype=np.int64)
            else:
                base_cand, base_subj = cand, subj
            merged_subj = np.concatenate([base_subj, a_subj])
            merged_cand = np.concatenate([base_cand, a_cand])
            order = np.argsort(merged_subj, kind="stable")
            cand, subj = merged_cand[order], merged_subj[order]
            counts = np.bincount(subj, minlength=s)
        elif n == 0 or not counts.sum():
            cand = np.empty(0, dtype=np.int64)
        offsets = np.concatenate(
            ([0], np.cumsum(counts))).astype(np.int64)
        return offsets, cand

    def _select_nearest(
        self,
        cand: np.ndarray,
        subj: np.ndarray,
        dist: np.ndarray,
        s: int,
        id_ranks: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact per-subject top-``max_entities`` by ``(distance, id rank)``.

        A global three-key lexsort dominates the batch pass at scale, so the
        selection is done with a distance histogram instead: pairs are
        bucketed by ``floor(dist / radius * B)`` (monotone in distance, so
        equal distances share a bucket), every pair strictly below a
        subject's threshold bucket is kept outright, and only the boundary
        bucket — a tiny fraction of the pairs — is sorted by
        ``(distance, id rank)`` to break ties exactly as
        :func:`naive_relevant` does.  Within-subject output order is
        selection order, not distance order; consumers treat each
        subject's slice as a set.
        """
        limit = self.config.max_entities
        counts = np.bincount(subj, minlength=s)
        over = counts > limit
        if not over.any():
            return cand, subj
        n_bins = 64
        inv = n_bins / self.config.radius_m
        bins = np.minimum((dist * inv).astype(np.int64), n_bins - 1)
        hist = np.bincount(subj * n_bins + bins,
                           minlength=s * n_bins).reshape(s, n_bins)
        cum = np.cumsum(hist, axis=1)
        # First bucket at which a subject reaches its cap; pairs in earlier
        # buckets are all closer than any pair in or past it.
        tbin = np.argmax(cum >= limit, axis=1)
        before = np.where(
            tbin > 0,
            np.take_along_axis(
                cum, np.maximum(tbin - 1, 0)[:, None], axis=1)[:, 0],
            0)
        need = limit - before
        over_pair = over[subj]
        sel = ~over_pair | (over_pair & (bins < tbin[subj]))
        boundary = np.flatnonzero(over_pair & (bins == tbin[subj]))
        if len(boundary):
            b_subj = subj[boundary]
            order = np.lexsort(
                (id_ranks[cand[boundary]], dist[boundary], b_subj))
            b_sorted = boundary[order]
            bs = subj[b_sorted]
            seg_counts = np.bincount(bs, minlength=s)
            seg_starts = np.concatenate(([0], np.cumsum(seg_counts)[:-1]))
            within = np.arange(len(bs)) - seg_starts[bs]
            sel[b_sorted[within < need[bs]]] = True
        return cand[sel], subj[sel]

    def relevant_batch(
        self,
        positions: Mapping[str, np.ndarray],
        subjects: Optional[Mapping[str, np.ndarray]] = None,
    ) -> Dict[str, Set[str]]:
        """Relevant sets for many subjects against one grid build.

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
        always_indices = np.asarray(sorted(
            index[e] for e in self.config.always_relevant if e in index
        ), dtype=np.int64)
        order = sorted(range(len(ids)), key=ids.__getitem__)
        id_ranks = np.empty(len(ids), dtype=np.int64)
        id_ranks[np.asarray(order, dtype=np.int64)] = np.arange(
            len(ids), dtype=np.int64)
        offsets, flat = self.relevant_indices_batch(
            points, subject_points, subject_self, always_indices, id_ranks)
        return {
            subject_id: {ids[j] for j in flat[offsets[i]:offsets[i + 1]]}
            for i, subject_id in enumerate(subject_ids)
        }

    def relevance_matrix(
        self, positions: Mapping[str, np.ndarray]
    ) -> Dict[str, Set[str]]:
        """Relevant sets for every entity at once (one grid build)."""
        return self.relevant_batch(positions)


class BroadcastInterest(InterestManager):
    """The no-filtering baseline: everyone is relevant to everyone.

    The C3a ablation arm.  It speaks the same indices API as the grid
    manager, so a :class:`~repro.sync.server.SyncServer` runs it through
    its one tick; the query scans, and reports, all ``s x n`` pairs.
    """

    def __init__(self):
        super().__init__()

    def relevant_indices_batch(
        self,
        points: np.ndarray,
        subject_points: np.ndarray,
        subject_self: np.ndarray,
        always_indices: np.ndarray,
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
