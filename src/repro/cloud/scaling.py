"""Session sharding for very large audiences."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class ShardPlanner:
    """Splits an audience across server shards.

    One authoritative shard can only tick so many entities (the C3a
    experiment measures the knee).  Beyond that, audiences are split:
    everyone still *sees* the instructor and stage (replicated to every
    shard), but peer visibility is confined to the shard — the standard
    trade the paper's "massively multi-user" citation (Donkervliet et al.)
    grapples with.
    """

    shard_capacity: int = 500
    replicated_entities: int = 3  # instructor, speakers, stage props

    def __post_init__(self):
        if self.shard_capacity < 2:
            raise ValueError("shard capacity must be >= 2")
        if self.replicated_entities < 0:
            raise ValueError("replicated entities must be >= 0")

    def n_shards(self, n_users: int) -> int:
        if n_users < 0:
            raise ValueError("n_users must be >= 0")
        if n_users == 0:
            return 0
        usable = self.shard_capacity - self.replicated_entities
        if usable < 1:
            raise ValueError("capacity too small for the replicated set")
        return -(-n_users // usable)  # ceil division

    def shard_sizes(self, n_users: int) -> List[int]:
        """Occupancy per shard when users are dealt round-robin.

        Round-robin distributes the remainder over the *first*
        ``n_users % shards`` shards, so the trailing shards hold one user
        fewer whenever the audience does not divide evenly.
        """
        shards = self.n_shards(n_users)
        if shards == 0:
            return []
        base, extra = divmod(n_users, shards)
        return [base + (1 if i < extra else 0) for i in range(shards)]

    def peer_visibility_fraction(self, n_users: int) -> float:
        """Per-user mean fraction of the audience visible as peers.

        A user in a shard of size ``s`` sees ``s - 1`` of the other
        ``n_users - 1`` participants, and with round-robin remainders the
        shard sizes differ — the old mean-occupancy shortcut over-counted
        visibility for everyone in the smaller trailing shards.  Averaging
        over users weights each shard by its actual size:
        ``sum(s * (s - 1)) / (n * (n - 1))``.
        """
        if n_users <= 1:
            return 1.0
        sizes = self.shard_sizes(n_users)
        visible_pairs = sum(size * (size - 1) for size in sizes)
        return min(1.0, visible_pairs / (n_users * (n_users - 1)))
