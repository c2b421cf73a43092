"""Application-level block forward error correction.

The paper points at "joint source coding and forward error correction at
the application level" (Nebula, ref [4]) as the way to hit high video
quality at imperceptible latency.  We model a systematic (k, k+r) block
code — Reed-Solomon-like at the erasure level: any k of the k+r packets of
a *generation* reconstruct all k source packets.  Actual Galois-field
arithmetic is unnecessary for an erasure-channel simulation; correctness is
by counting, which is exactly how RS behaves for erasures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set


@dataclass(frozen=True)
class BlockCode:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """Parameters of a systematic erasure code: k data + r repair packets."""

    k: int
    r: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.r < 0:
            raise ValueError(f"r must be >= 0, got {self.r}")

    @property
    def n(self) -> int:
        return self.k + self.r

    @property
    def overhead(self) -> float:
        """Bandwidth overhead fraction: r / k."""
        return self.r / self.k

    def residual_loss(self, p: float) -> float:
        """Analytic post-FEC loss probability for packet loss rate ``p``.

        A generation fails when fewer than k of its n packets arrive; the
        expected fraction of unrecoverable *source* packets follows the
        binomial tail.
        """
        if not 0.0 <= p < 1.0:
            raise ValueError(f"loss rate must be in [0,1), got {p}")
        from scipy.stats import binom

        # A given source packet is lost iff it is erased (prob p) AND fewer
        # than k of the *other* n-1 packets arrive, making it unrecoverable.
        others = binom(self.n - 1, 1.0 - p)
        return p * float(others.cdf(self.k - 1))


def _payload_ctx(payloads):
    """First span context found on any payload (``.meta`` or dict key)."""
    for payload in payloads:
        meta = getattr(payload, "meta", None)
        if isinstance(meta, dict) and meta.get("obs_ctx") is not None:
            return meta["obs_ctx"]
        if isinstance(payload, dict) and payload.get("obs_ctx") is not None:
            return payload["obs_ctx"]
    return None


@dataclass
class _Generation:
    index: int
    payloads: Dict[int, Any] = field(default_factory=dict)
    received: Set[int] = field(default_factory=set)
    recovered: bool = False


class FecEncoder:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """Groups source packets into generations and emits repair packets.

    ``on_emit(payload, is_repair, generation, index)`` is called for every
    packet to place on the wire; source payloads pass through, repair
    payloads are opaque ``("repair", generation, index)`` markers sized like
    a source packet.
    """

    def __init__(self, code: BlockCode, on_emit: Callable[[Any, bool, int, int], None]):
        self.code = code
        self.on_emit = on_emit
        self._generation = 0
        self._buffered: List[Any] = []
        self.source_sent = 0
        self.repair_sent = 0

    def push(self, payload: Any) -> None:
        """Submit one source packet for transmission."""
        index = len(self._buffered)
        self._buffered.append(payload)
        self.source_sent += 1
        self.on_emit(payload, False, self._generation, index)
        if len(self._buffered) == self.code.k:
            self._flush_repair()

    def _flush_repair(self) -> None:
        for j in range(self.code.r):
            self.repair_sent += 1
            self.on_emit(
                ("repair", self._generation, j), True, self._generation, self.code.k + j
            )
        self._generation += 1
        self._buffered = []


class FecDecoder:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """Receives packets of generations and recovers erased source packets.

    ``on_deliver(payload)`` fires once per source packet, either on direct
    arrival or on recovery the moment the k-th packet of its generation
    lands.  Recovery of payloads is possible because the encoder keeps the
    generation's source payloads (standing in for the algebra a real RS
    decoder performs).

    Memory is bounded: only the ``horizon`` most recent generations stay
    resident.  Once a newer generation's packet advances the high-water
    mark, everything older than ``highest - horizon + 1`` is retired —
    its bookkeeping freed, its packets thereafter discarded as late
    (``late_discarded``).  Delivery counters survive retirement, and a
    completed generation's recovery payloads are freed immediately since
    nothing is left to rebuild.  A lecture-length session therefore holds
    a constant number of generations instead of one per block ever sent.
    """

    def __init__(
        self,
        code: BlockCode,
        on_deliver: Callable[[Any], None],
        horizon: int = 64,
        obs=None,
    ):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.code = code
        self.on_deliver = on_deliver
        self.horizon = horizon
        # Optional SpanTracer: each generation recovery records a
        # ``fec_repair`` span, parented to the first recovered payload's
        # span context when payloads carry one (``payload.meta["obs_ctx"]``
        # or a dict payload's ``"obs_ctx"`` key).
        self.obs = obs
        self._generations: Dict[int, _Generation] = {}
        self._source_payloads: Dict[int, Dict[int, Any]] = {}
        self._watermark = 0  # lowest generation still resident
        self._highest = -1
        self.delivered_direct = 0
        self.delivered_recovered = 0
        self.generations_retired = 0
        self.late_discarded = 0

    @property
    def resident_generations(self) -> int:
        """Generations currently held in memory (bounded by ``horizon``)."""
        return len(self._generations)

    def _advance_watermark(self, generation: int) -> None:
        if generation <= self._highest:
            return
        self._highest = generation
        new_watermark = generation - self.horizon + 1
        while self._watermark < new_watermark:
            retired = self._generations.pop(self._watermark, None)
            if retired is not None:
                self.generations_retired += 1
            self._source_payloads.pop(self._watermark, None)
            self._watermark += 1

    def register_source(self, generation: int, index: int, payload: Any) -> None:
        """Encoder-side hook: remember payloads so erasures can be rebuilt."""
        if generation < self._watermark:
            return  # generation already retired
        self._source_payloads.setdefault(generation, {})[index] = payload

    def receive(self, generation: int, index: int, payload: Any, is_repair: bool) -> None:
        if generation < self._watermark:
            self.late_discarded += 1
            return
        self._advance_watermark(generation)
        gen = self._generations.setdefault(generation, _Generation(generation))
        if index in gen.received:
            return  # duplicate
        gen.received.add(index)
        if not is_repair and index not in gen.payloads:
            gen.payloads[index] = payload
            self.delivered_direct += 1
            self.on_deliver(payload)
        if gen.recovered:
            return
        if len(gen.received) >= self.code.k:
            self._recover(gen)

    def _recover(self, gen: _Generation) -> None:
        gen.recovered = True
        known = self._source_payloads.get(gen.index, {})
        recovered = []
        for index in range(self.code.k):
            if index in gen.payloads:
                continue
            payload = known.get(index)
            if payload is None:
                continue  # nothing registered; cannot reconstruct content
            gen.payloads[index] = payload
            self.delivered_recovered += 1
            recovered.append(payload)
            self.on_deliver(payload)
        if recovered and self.obs is not None and self.obs.enabled:
            now = self.obs.now()
            self.obs.record_span(
                "fec_repair", "net", now, now,
                parent=_payload_ctx(recovered),
                generation=gen.index, recovered=len(recovered))
        # Recovery is done; the registered payloads have served their purpose.
        self._source_payloads.pop(gen.index, None)

    def generation_complete(self, generation: int) -> bool:
        """True while the generation is resident and fully reconstructed.

        Retired generations (older than the pruning horizon) report False;
        use the delivery counters for lifetime totals.
        """
        gen = self._generations.get(generation)
        return gen is not None and len(gen.payloads) >= self.code.k
