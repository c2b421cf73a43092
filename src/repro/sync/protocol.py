"""Wire messages of the synchronization protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.avatar.state import AvatarState
from repro.sensing.quantize import QuantizationConfig

_QUANT = QuantizationConfig()

#: Fixed header bytes of every sync message (type, session, tick, checksum).
HEADER_BYTES = 24


@dataclass
class ClientUpdate:
    """Client → server: the participant's own latest state.

    ``ctx`` is an optional observability span context (see
    :mod:`repro.obs.span`); a traced update's journey through tick wait,
    interest filtering, and delta encoding is attributed to that trace.
    Contexts are out-of-band bookkeeping and carry no wire bytes.
    """

    client_id: str
    state: AvatarState
    input_seq: int
    ctx: Optional[Any] = None

    @property
    def size_bytes(self) -> int:
        return HEADER_BYTES + self.state.wire_bytes(_QUANT)


@dataclass(slots=True)
class ServerSnapshot:
    """Server → client: authoritative states relevant to this client.

    ``full`` snapshots carry every relevant entity (keyframes); delta
    snapshots carry only entities that changed since the client's last
    acknowledged tick, plus a removal list.

    ``trace`` maps a traced entity id to ``(span_context, ready_at)``:
    the trace the entity's latest update belongs to, and the simulated
    time its share of the tick compute completes (downstream senders
    should not ship the snapshot to that trace's observer before it).
    Like ``ClientUpdate.ctx`` it is out-of-band and adds no wire bytes.
    """

    tick: int
    server_time: float
    states: List[AvatarState] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    full: bool = False
    trace: Optional[Dict[str, Any]] = None
    #: Precomputed wire size.  The server tick sums per-entity wire
    #: sizes for every subscriber in one reduction and stamps the result
    #: here; when None the property falls back to the per-state sum (the
    #: two are equal by construction — the cached per-slot sizes come from
    #: the same ``AvatarState.wire_bytes`` model).
    cached_size_bytes: Optional[int] = None

    @property
    def size_bytes(self) -> int:
        if self.cached_size_bytes is not None:
            return self.cached_size_bytes
        size = HEADER_BYTES
        size += sum(state.wire_bytes(_QUANT) for state in self.states)
        size += 8 * len(self.removed)
        return size

