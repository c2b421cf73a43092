"""Real-time state synchronization of the shared classroom world.

Section 3.3: "Developing such a classroom raises significant challenges
related to the synchronization of a large number of entities within a
single digital space ... users' actions need to be synchronized in
real-time to enable seamless interaction."  This package provides the
tick-based authoritative server, delta encoding, interest management
over one sorted cell index, client-side prediction, and the federation
of regional shards.
"""

from repro.sync.client import SyncClient
from repro.sync.delta import BatchDeltaEncoder, WorldState
from repro.sync.federation import (
    FederatedClient,
    ShardDelta,
    ShardedSyncService,
    ShardHandoffController,
    ShardRelay,
)
from repro.sync.interest import (
    BroadcastInterest,
    InterestConfig,
    InterestManager,
    naive_relevant,
)
from repro.sync.migration import FailoverController, MigratableClient
from repro.sync.prediction import MoveInput, PredictedAvatar
from repro.sync.protocol import ClientUpdate, ServerSnapshot
from repro.sync.server import ServerCostModel, SyncServer

__all__ = [
    "BatchDeltaEncoder",
    "BroadcastInterest",
    "ClientUpdate",
    "FailoverController",
    "FederatedClient",
    "MigratableClient",
    "MoveInput",
    "PredictedAvatar",
    "InterestConfig",
    "InterestManager",
    "ServerCostModel",
    "ShardDelta",
    "ShardedSyncService",
    "ShardHandoffController",
    "ShardRelay",
    "naive_relevant",
    "ServerSnapshot",
    "SyncClient",
    "SyncServer",
    "WorldState",
]
