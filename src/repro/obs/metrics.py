"""The one metric primitive: a fixed-bucket histogram.

Every latency the serving stack reports — per-batch and per-request
scoring times inside a worker, the front-end's admission→resolution
times and the cross-worker merge of the batch times — is a
:class:`Histogram` over :data:`LATENCY_BUCKETS`, and every view of one
renders through :meth:`Histogram.snapshot`, so ``/metrics``, ``repro obs
top``, the serving CLI and the benchmark read one key set.  Plain Python
+ numpy, cheap enough to update on hot paths.
"""

from __future__ import annotations

import bisect

import numpy as np

__all__ = ["Histogram", "LATENCY_BUCKETS"]

#: Default bucket upper bounds, seconds (log-spaced 10µs → 10s).
LATENCY_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0
)


class Histogram:
    """Fixed-bucket histogram with exact count/sum and bucketed percentiles.

    The value distribution is summarised by per-bucket counts: observation
    ``v`` lands in the first bucket whose upper bound is ``>= v`` (bounds
    are inclusive), values above the last bound land in a +Inf overflow
    bucket, and values below the first bound land in bucket 0.  Count and
    sum are exact; percentiles are conservative upper bounds (the true
    value is at most the returned bucket bound).  Observations are
    durations, so negative ones are rejected.

    Args:
        buckets: Increasing upper bounds of the finite buckets.
    """

    def __init__(self, buckets: tuple[float, ...] = LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("buckets must be non-empty and increasing")
        self.bounds = bounds
        self.counts = np.zeros(len(bounds) + 1, dtype=np.int64)
        self.total = 0.0

    @property
    def count(self) -> int:
        """Total number of observations."""
        return int(self.counts.sum())

    def observe(self, value: float) -> None:
        """Record one observation."""
        if not np.isfinite(value):
            raise ValueError(f"refusing to record non-finite value {value}")
        if value < 0:
            raise ValueError(f"refusing to record negative value {value}")
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Exact mean of the observations (0 when empty)."""
        n = self.count
        return self.total / n if n else 0.0

    def percentile(self, q: float) -> float:
        """Upper bucket bound covering the q-th percentile (0 < q <= 100).

        Bucketed percentiles are conservative: the true value is at most
        the returned bound (+Inf overflow reports the last finite bound).
        """
        if not 0 < q <= 100:
            raise ValueError("q must be in (0, 100]")
        n = self.count
        if n == 0:
            return 0.0
        rank = int(np.ceil(q / 100.0 * n))
        cumulative = np.cumsum(self.counts)
        bucket = int(np.searchsorted(cumulative, rank))
        return self.bounds[min(bucket, len(self.bounds) - 1)]

    def count_above(self, bound: float) -> int:
        """Observations in buckets whose upper bound exceeds ``bound``.

        The +Inf overflow bucket always counts.  A bucket straddling
        ``bound`` counts whole, so this over- rather than under-reports.
        """
        return int(self.counts[bisect.bisect_right(self.bounds, bound):].sum())

    def bucket_counts(self) -> dict[str, int]:
        """JSON-compatible per-bucket counts keyed ``le_<bound>``."""
        return {
            f"le_{bound:g}": int(c)
            for bound, c in zip(self.bounds, self.counts)
        } | {"overflow": int(self.counts[-1])}

    def snapshot(self) -> dict:
        """JSON-compatible histogram state."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "buckets": self.bucket_counts(),
        }
