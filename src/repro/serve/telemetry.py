"""Serving telemetry: latency histograms, throughput and event counters.

A scoring service is operated by its numbers: row and batch counts,
per-batch latency distribution, fallbacks by reason and the current
drift level.  Everything here is cheap enough to update on every
request and renders to one JSON-compatible ``snapshot()`` — the schema
``docs/serving.md`` documents and ``repro serve-score`` prints.

Latencies are :class:`repro.obs.metrics.Histogram` objects over the
default :data:`~repro.obs.metrics.LATENCY_BUCKETS`, so every latency view
shares one snapshot key set.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import Histogram

__all__ = ["FrontendTelemetry", "ServingTelemetry"]


class ServingTelemetry:
    """Counters + latency for one :class:`~repro.serve.service.ScoringService`.

    Attributes:
        batch_latency: Histogram over per-batch scoring wall times.
    """

    def __init__(self) -> None:
        self.batch_latency = Histogram()
        self.rows_scored = 0
        self.batches = 0
        self.fallbacks: dict[str, int] = {}
        self._busy_seconds = 0.0

    def record_batch(self, n_rows: int, seconds: float) -> None:
        """Account one scored batch."""
        self.rows_scored += n_rows
        self.batches += 1
        self._busy_seconds += seconds
        self.batch_latency.observe(seconds)

    def record_fallback(self, reason: str) -> None:
        """Count one champion fallback by reason."""
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    @property
    def busy_seconds(self) -> float:
        """Cumulative scoring wall time (the denominator of throughput)."""
        return self._busy_seconds

    @property
    def throughput_rows_per_s(self) -> float:
        """Rows scored per second of scoring busy time."""
        if self._busy_seconds == 0:
            return 0.0
        return self.rows_scored / self._busy_seconds

    def snapshot(self) -> dict:
        """The full JSON-compatible telemetry payload (docs/serving.md)."""
        return {
            "rows_scored": self.rows_scored,
            "batches": self.batches,
            "throughput_rows_per_s": self.throughput_rows_per_s,
            "fallbacks": dict(self.fallbacks),
            "batch_latency": self.batch_latency.snapshot(),
        }

    def summary(self) -> str:
        """One human-readable line per headline number."""
        snap = self.snapshot()
        lines = [
            f"rows scored     {snap['rows_scored']}",
            f"batches         {snap['batches']}",
            f"throughput      {snap['throughput_rows_per_s']:.0f} rows/s",
            f"batch p95       {snap['batch_latency']['p95'] * 1e3:.3g} ms",
        ]
        if snap["fallbacks"]:
            reasons = ", ".join(f"{k}={v}" for k, v in
                                sorted(snap["fallbacks"].items()))
            lines.append(f"fallbacks       {reasons}")
        return "\n".join(lines)


class FrontendTelemetry:
    """Counters + end-to-end latency for one multi-worker front-end.

    Everything a :class:`~repro.serve.frontend.ScoringFrontend` operator
    needs to see that the bounded queue and the fault-recovery paths are
    doing their jobs: admissions vs sheds vs refusals, worker deaths and
    requeues, model swaps, plus the admission→resolution latency
    distribution (which, unlike :class:`ServingTelemetry`'s per-batch
    clocks, includes queueing delay — the number backpressure trades off).

    Unlike :class:`ServingTelemetry` (one writer, the worker loop), this
    object is written from two threads at once — the caller thread
    (admissions, sheds, refusals) and the collector thread (resolutions,
    requeues, deaths) — so every mutation takes an internal mutex.
    ``x += 1`` is *not* atomic in CPython (LOAD/ADD/STORE interleave and
    drop increments under contention), and the acceptance criterion here
    is exact counter aggregation, not "close enough".

    Attributes:
        request_latency: Histogram over admission→resolution wall times.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.request_latency = Histogram()
        self.admitted = 0
        self.shed = 0
        self.refused = 0
        self.errors = 0
        self.requeued = 0
        self.worker_deaths = 0
        self.swaps = 0

    def record_admitted(self) -> None:
        """Count one request accepted past admission control."""
        with self._lock:
            self.admitted += 1

    def record_shed(self) -> None:
        """Count one request refused by backpressure (queue full)."""
        with self._lock:
            self.shed += 1

    def record_refused(self) -> None:
        """Count one request refused at the door (malformed)."""
        with self._lock:
            self.refused += 1

    def record_request(self, seconds: float) -> None:
        """Account one resolved (scored or errored) request."""
        with self._lock:
            self.request_latency.observe(seconds)

    def record_request_error(self) -> None:
        """Count one admitted request that resolved to an error."""
        with self._lock:
            self.errors += 1

    def record_requeued(self, n: int) -> None:
        """Count requests re-dispatched after their worker died."""
        with self._lock:
            self.requeued += n

    def record_worker_death(self) -> None:
        """Count one worker process found dead and respawned."""
        with self._lock:
            self.worker_deaths += 1

    def record_swap(self) -> None:
        """Count one atomic model-generation swap."""
        with self._lock:
            self.swaps += 1

    def snapshot(self) -> dict:
        """JSON-compatible front-end telemetry (docs/serving.md schema)."""
        with self._lock:
            return {
                "admitted": self.admitted,
                "shed": self.shed,
                "refused": self.refused,
                "errors": self.errors,
                "requeued": self.requeued,
                "worker_deaths": self.worker_deaths,
                "swaps": self.swaps,
                "request_latency": self.request_latency.snapshot(),
            }
