"""Summary statistics of a sample."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
