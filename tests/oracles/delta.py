"""The per-entity delta encoder that ``repro.sync.delta.BatchDeltaEncoder``
must match, one subscriber and one entity at a time."""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.avatar.state import AvatarState
from repro.sync.delta import WorldState


def _version_key(state: AvatarState) -> tuple:
    return (getattr(state, "epoch", 0), state.seq)


class DeltaEncoder:
    """Tracks what each subscriber has seen and encodes the difference.

    For every subscriber the encoder remembers the last ``(epoch, seq)``
    sent per entity; a delta contains only entities whose version moved,
    entities that entered the relevant set, and a removal list for entities
    that left it.  ``keyframe_interval`` forces periodic full snapshots so
    joiners and loss recover.

    This is the per-entity reference: no production path runs it; the
    encoder property tests check :class:`BatchDeltaEncoder` against it.

    Keyframe cadence: ``keyframe_interval=k`` emits a keyframe every k-th
    *sent* snapshot tick — the counter increments before the threshold
    check (``interval=1`` keyframes every tick) and only resets when the
    keyframe actually carries content, because the server skips empty
    snapshots and a client cannot recover from a keyframe it never got.
    """

    def __init__(self, keyframe_interval: int = 30):
        if keyframe_interval < 1:
            raise ValueError("keyframe interval must be >= 1")
        self.keyframe_interval = keyframe_interval
        self._seen: Dict[str, Dict[str, tuple]] = {}
        self._ticks_since_keyframe: Dict[str, int] = {}

    def encode(
        self,
        subscriber_id: str,
        world: WorldState,
        relevant: Set[str],
    ) -> tuple:
        """(states to send, removed ids, is_full) for this subscriber."""
        seen = self._seen.setdefault(subscriber_id, {})
        ticks = self._ticks_since_keyframe.get(subscriber_id, 0) + 1
        force_full = ticks >= self.keyframe_interval or not seen
        states: List[AvatarState] = []
        for entity_id in relevant:
            state = world.entities.get(entity_id)
            if state is None:
                # Deleted from the world while still in the relevant set:
                # handled below as a removal so the subscriber's replica
                # does not keep a ghost of it.
                continue
            if force_full or seen.get(entity_id, (-1, -1)) < _version_key(state):
                states.append(state)
        removed = [
            entity_id
            for entity_id in seen
            if entity_id not in relevant or entity_id not in world.entities
        ]
        # Update bookkeeping.
        for state in states:
            seen[state.participant_id] = _version_key(state)
        for entity_id in removed:
            del seen[entity_id]
        # The counter resets only when the keyframe is actually sent: the
        # server drops empty snapshots, so an empty forced keyframe must
        # stay pending until there is content to recover from.
        if force_full and (states or removed):
            ticks = 0
        self._ticks_since_keyframe[subscriber_id] = ticks
        return states, removed, force_full

    def forget(self, subscriber_id: str) -> None:
        """Drop a disconnected subscriber's bookkeeping."""
        self._seen.pop(subscriber_id, None)
        self._ticks_since_keyframe.pop(subscriber_id, None)

    def acked_seq(self, subscriber_id: str, entity_id: str) -> Optional[int]:
        version = self._seen.get(subscriber_id, {}).get(entity_id)
        return None if version is None else version[1]
