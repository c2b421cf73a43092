"""Summary statistics with confidence intervals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Distribution summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p90: float
    p95: float
    p99: float
    maximum: float

    def row(self) -> str:
        """One aligned text row, handy for benchmark printouts."""
        return (
            f"n={self.count:6d} mean={self.mean:10.4f} p50={self.p50:10.4f} "
            f"p95={self.p95:10.4f} p99={self.p99:10.4f} max={self.maximum:10.4f}"
        )


def summarize(values: Sequence[float]) -> Summary:
    """Compute a :class:`Summary` of ``values``; raises on an empty sample."""
    if len(values) == 0:
        raise ValueError("cannot summarize an empty sample")
    array = np.asarray(values, dtype=float)
    p50, p90, p95, p99 = np.percentile(array, [50.0, 90.0, 95.0, 99.0])
    return Summary(
        count=int(array.size),
        mean=float(array.mean()),
        std=float(array.std(ddof=1)) if array.size > 1 else 0.0,
        minimum=float(array.min()),
        p50=float(p50),
        p90=float(p90),
        p95=float(p95),
        p99=float(p99),
        maximum=float(array.max()),
    )


def bootstrap_ci(  # replint: ignore[ARCH003] -- test-only, queued for deletion
    values: Sequence[float],
    confidence: float = 0.95,
    n_resamples: int = 2000,
    statistic=np.mean,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval for ``statistic``.

    Deterministic when an explicit ``rng`` is passed.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if rng is None:
        rng = np.random.default_rng(0)
    estimates = np.empty(n_resamples)
    for i in range(n_resamples):
        resample = rng.choice(array, size=array.size, replace=True)
        estimates[i] = statistic(resample)
    tail = (1.0 - confidence) / 2.0
    low, high = np.percentile(estimates, [100.0 * tail, 100.0 * (1.0 - tail)])
    return float(low), float(high)
