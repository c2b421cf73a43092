"""Token-bucket traffic shaping."""

from __future__ import annotations

from typing import Optional


class TokenBucket:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """A classic token bucket: ``rate_bps`` sustained, ``burst_bytes`` burst.

    ``conform_delay`` answers "how long must this packet wait to conform?"
    without consuming tokens; ``consume`` actually spends them.  Time is
    supplied by the caller so the shaper works against any clock.
    """

    def __init__(self, rate_bps: float, burst_bytes: int):
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        if burst_bytes <= 0:
            raise ValueError("burst must be positive")
        self.rate_bytes_per_s = rate_bps / 8.0
        self.burst_bytes = float(burst_bytes)
        self._tokens = float(burst_bytes)
        self._last_refill: Optional[float] = None

    def _refill(self, now: float) -> None:
        if self._last_refill is None:
            self._last_refill = now
            return
        elapsed = now - self._last_refill
        if elapsed < 0:
            raise ValueError("time moved backwards")
        self._tokens = min(
            self.burst_bytes, self._tokens + elapsed * self.rate_bytes_per_s
        )
        self._last_refill = now

    def tokens(self, now: float) -> float:
        """Current token balance in bytes."""
        self._refill(now)
        return self._tokens

    def conform_delay(self, size_bytes: int, now: float) -> float:
        """Seconds until a packet of ``size_bytes`` conforms (0 if now)."""
        self._refill(now)
        deficit = size_bytes - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate_bytes_per_s

    def consume(self, size_bytes: int, now: float) -> bool:
        """Spend tokens if available; False when the packet must wait."""
        self._refill(now)
        if size_bytes <= self._tokens:
            self._tokens -= size_bytes
            return True
        return False
