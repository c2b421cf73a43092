"""Conflict-free replicated whiteboard for cross-campus collaboration.

Both campuses and the VR classroom edit the shared whiteboard at once over
links with tens of milliseconds of latency; a central lock would make pen
strokes feel like molasses.  CRDT semantics fix it: strokes form an
observed-remove set (add wins over concurrent remove of *different* tags;
removes only affect observed tags), and each board region's text label is
last-writer-wins ordered by Lamport timestamp with the replica id as a
deterministic tiebreak.  Replicas converge regardless of delivery order —
the property tests hammer exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple


@dataclass(frozen=True)
class Stroke:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """One pen stroke; the tag (replica, counter) is globally unique."""

    tag: Tuple[str, int]
    points: Tuple[Tuple[float, float], ...]
    color: str = "black"


@dataclass(frozen=True)
class StrokeAdd:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    stroke: Stroke


@dataclass(frozen=True)
class StrokeRemove:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    tags: FrozenSet[Tuple[str, int]]


@dataclass(frozen=True)
class LabelSet:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    region: str
    text: str
    timestamp: Tuple[int, str]   # (lamport, replica) — totally ordered


Op = object  # StrokeAdd | StrokeRemove | LabelSet


class WhiteboardReplica:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """One site's copy of the shared whiteboard."""

    def __init__(self, replica_id: str):
        self.replica_id = replica_id
        self._counter = 0
        self._lamport = 0
        self._strokes: Dict[Tuple[str, int], Stroke] = {}
        self._removed: Set[Tuple[str, int]] = set()
        self._labels: Dict[str, Tuple[Tuple[int, str], str]] = {}

    # -- local edits (each returns the op to broadcast) -----------------------

    def draw(self, points: Iterable[Tuple[float, float]],
             color: str = "black") -> StrokeAdd:
        self._counter += 1
        self._lamport += 1
        stroke = Stroke(
            tag=(self.replica_id, self._counter),
            points=tuple((float(x), float(y)) for x, y in points),
            color=color,
        )
        op = StrokeAdd(stroke)
        self.apply(op)
        return op

    def erase(self, tags: Iterable[Tuple[str, int]]) -> StrokeRemove:
        """Erase strokes *observed* locally (observed-remove semantics)."""
        self._lamport += 1
        observed = frozenset(tag for tag in tags if tag in self._strokes)
        op = StrokeRemove(observed)
        self.apply(op)
        return op

    def set_label(self, region: str, text: str) -> LabelSet:
        self._lamport += 1
        op = LabelSet(region, text, (self._lamport, self.replica_id))
        self.apply(op)
        return op

    # -- replication -----------------------------------------------------------

    def apply(self, op: Op) -> None:
        """Apply a local or remote operation (idempotent, commutative)."""
        if isinstance(op, StrokeAdd):
            if op.stroke.tag not in self._removed:
                self._strokes[op.stroke.tag] = op.stroke
        elif isinstance(op, StrokeRemove):
            for tag in op.tags:
                self._removed.add(tag)
                self._strokes.pop(tag, None)
        elif isinstance(op, LabelSet):
            self._lamport = max(self._lamport, op.timestamp[0])
            current = self._labels.get(op.region)
            if current is None or op.timestamp > current[0]:
                self._labels[op.region] = (op.timestamp, op.text)
        else:
            raise TypeError(f"unknown op: {op!r}")

    # -- queries ---------------------------------------------------------------

    def strokes(self) -> List[Stroke]:
        return [self._strokes[tag] for tag in sorted(self._strokes)]

    def stroke_tags(self) -> Set[Tuple[str, int]]:
        return set(self._strokes)

    def label(self, region: str) -> Optional[str]:
        entry = self._labels.get(region)
        return entry[1] if entry else None

    def digest(self) -> Tuple:
        """Order-independent state fingerprint for convergence checks."""
        return (
            frozenset(self._strokes),
            frozenset(self._removed),
            frozenset(
                (region, ts, text)
                for region, (ts, text) in self._labels.items()
            ),
        )


def converged(  # replint: ignore[ARCH003] -- test-only, queued for deletion
        replicas: List[WhiteboardReplica]) -> bool:
    """True when every replica holds identical state."""
    if not replicas:
        raise ValueError("no replicas")
    first = replicas[0].digest()
    return all(replica.digest() == first for replica in replicas[1:])
