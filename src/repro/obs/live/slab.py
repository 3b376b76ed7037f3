"""Per-worker shared-memory metrics slabs + the parent-side aggregator.

The multi-worker front-end keeps each worker's
:class:`~repro.serve.telemetry.ServingTelemetry` inside that worker's
process.  A :class:`MetricsSlab` makes the numbers observable *while
serving*: the parent allocates one shared-memory block with one fixed row
per worker — the two :data:`COUNTERS`, ``busy_seconds``, and the batch
latency's bucket counts plus exact sum — each worker attaches writable
and publishes its telemetry into its row after every batch, and a
parent-side :class:`MetricsAggregator` reads every row torn-free and
merges them into one :class:`~repro.obs.metrics.Histogram` snapshot, the
same key set every other latency view renders.

Torn reads are prevented by a *seqlock* generation word per row: the
writer bumps it to an odd value before touching the row and to the next
even value after; the reader samples it before and after copying and
retries while the two samples disagree or are odd.  No locks, no
syscalls, and the writer never blocks on the reader — exactly the
property a hot scoring loop needs.  (CPython + numpy gives no formal
memory-ordering guarantees, but each slab row has exactly one writer
process and the read side *copies* before validating, so a torn snapshot
is detected and retried rather than consumed.)

The block itself reuses the :class:`~repro.parallel.shared.SharedArrayPack`
allocation surface, so slabs ride the same 64-byte-aligned layout,
PackSpec pickling and resource-tracker discipline as the dataset and
model handoffs.
"""

from __future__ import annotations

import time

from repro.obs.metrics import LATENCY_BUCKETS, Histogram
from repro.parallel.shared import PackSpec, SharedArrayPack

__all__ = ["COUNTERS", "MetricsSlab", "SlabWriter", "MetricsAggregator"]

#: How many seqlock retries a reader attempts before reporting a tear.
_MAX_READ_RETRIES = 64

#: The row's int64 counters, in storage order.
COUNTERS = ("rows_scored", "batches")

#: Heartbeat age in seconds beyond which :meth:`MetricsAggregator.liveness`
#: reports a worker stale.
_LIVENESS_TIMEOUT_S = 5.0


def _empty_row() -> dict:
    """A zero row in :meth:`MetricsSlab.read_worker`'s sample shape."""
    return {"counters": dict.fromkeys(COUNTERS, 0), "busy_seconds": 0.0,
            "batch_latency": Histogram()}


def _add(into: dict, sample: dict) -> None:
    """Fold one row sample into a running total, in place."""
    for name in COUNTERS:
        into["counters"][name] += sample["counters"][name]
    into["busy_seconds"] += sample["busy_seconds"]
    into["batch_latency"].counts += sample["batch_latency"].counts
    into["batch_latency"].total += sample["batch_latency"].total


class MetricsSlab:
    """One shared block of per-worker metric rows with seqlock reads.

    Parent::

        slab = MetricsSlab.allocate(n_workers=4)
        spawn_workers(slab.spec)           # only the spec is pickled
        sample = slab.read_worker(0)       # torn-free dict or None
        slab.dispose()

    Worker::

        writer = MetricsSlab.attach(spec).writer(worker_id)
        writer.publish(telemetry)          # one ServingTelemetry
    """

    def __init__(self, pack: SharedArrayPack):
        self._pack = pack
        self._arrays = pack.writable_arrays()
        self.n_workers = len(self._arrays["gen"])

    @property
    def spec(self) -> PackSpec:
        """The picklable handle workers attach with."""
        return self._pack.spec

    @classmethod
    def allocate(cls, n_workers: int) -> "MetricsSlab":
        """Parent side: one zero-initialised slab row per worker."""
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        return cls(SharedArrayPack.allocate({
            "gen": ((n_workers,), "<i8"),
            "heartbeat_unix": ((n_workers,), "<f8"),
            "counters": ((n_workers, len(COUNTERS)), "<i8"),
            "busy_seconds": ((n_workers,), "<f8"),
            "latency_counts": ((n_workers, len(LATENCY_BUCKETS) + 1), "<i8"),
            "latency_sum": ((n_workers,), "<f8"),
        }))

    @classmethod
    def attach(cls, spec: PackSpec) -> "MetricsSlab":
        """Worker side: writable views of the parent's block."""
        return cls(SharedArrayPack.attach(spec, writable=True))

    def writer(self, worker_id: int) -> "SlabWriter":
        """The single-writer handle for one slab row."""
        if not 0 <= worker_id < self.n_workers:
            raise ValueError(f"worker_id {worker_id} out of range "
                             f"[0, {self.n_workers})")
        return SlabWriter(self, worker_id)

    # ------------------------------------------------------------ read side

    def read_worker(self, worker_id: int,
                    allow_torn: bool = False) -> dict | None:
        """One worker's row as a dict, seqlock-validated.

        The sample holds ``counters`` (name → int), ``busy_seconds``,
        ``batch_latency`` (a :class:`Histogram`), ``heartbeat_unix`` and
        the seqlock ``generation`` it was read at.

        Returns None for a row that has never been written, or — after
        bounded retries — one that is being written *right now* (the next
        poll will get it).  ``allow_torn=True`` accepts the last state
        regardless, which is correct once the writer process is known
        dead (a death mid-write leaves the generation odd forever).
        """
        gen = self._arrays["gen"]
        for _ in range(_MAX_READ_RETRIES):
            g1 = int(gen[worker_id])
            if g1 == 0:
                return None
            if g1 % 2 == 1 and not allow_torn:
                continue
            sample = self._copy_row(worker_id)
            g2 = int(gen[worker_id])
            if g1 == g2 or allow_torn:
                sample["generation"] = g2
                return sample
        if allow_torn:
            sample = self._copy_row(worker_id)
            sample["generation"] = int(gen[worker_id])
            return sample
        return None

    def _copy_row(self, worker_id: int) -> dict:
        arrays = self._arrays
        latency = Histogram()
        latency.counts[:] = arrays["latency_counts"][worker_id]
        latency.total = float(arrays["latency_sum"][worker_id])
        return {
            "heartbeat_unix": float(arrays["heartbeat_unix"][worker_id]),
            "counters": dict(zip(COUNTERS,
                                 arrays["counters"][worker_id].tolist())),
            "busy_seconds": float(arrays["busy_seconds"][worker_id]),
            "batch_latency": latency,
        }

    def clear_row(self, worker_id: int) -> None:
        """Zero one row, generation included (it reads as never written)."""
        for array in self._arrays.values():
            array[worker_id] = 0

    # ------------------------------------------------------------- cleanup

    def close(self) -> None:
        self._arrays = {}
        self._pack.close()

    def dispose(self) -> None:
        self._arrays = {}
        self._pack.dispose()


class SlabWriter:
    """The one writer of one slab row (lives inside the worker process)."""

    def __init__(self, slab: MetricsSlab, worker_id: int):
        self.worker_id = worker_id
        arrays = slab._arrays
        self._gen = arrays["gen"]
        self._heartbeat = arrays["heartbeat_unix"]
        self._counters = arrays["counters"]
        self._busy = arrays["busy_seconds"]
        self._latency_counts = arrays["latency_counts"]
        self._latency_sum = arrays["latency_sum"]
        self._n_published = 0

    @property
    def n_published(self) -> int:
        return self._n_published

    def publish(self, telemetry) -> None:
        """Overwrite this row from one :class:`ServingTelemetry`.

        Values are *absolute* (the worker's lifetime totals), not deltas
        — so a missed publish is self-healing and the parent needs no
        per-row bookkeeping beyond "absorb the final row when a worker
        dies".  The write is seqlock-bracketed.
        """
        counters = (telemetry.rows_scored, telemetry.batches)
        latency = telemetry.batch_latency
        w = self.worker_id
        self._gen[w] += 1          # odd: row is being written
        try:
            self._counters[w, :] = counters
            self._busy[w] = telemetry.busy_seconds
            self._latency_counts[w, :] = latency.counts
            self._latency_sum[w] = latency.total
            self._heartbeat[w] = time.time()
        finally:
            self._gen[w] += 1      # even: row is consistent again
        self._n_published += 1

    def heartbeat(self) -> None:
        """Touch the liveness clock without republishing metrics."""
        w = self.worker_id
        self._gen[w] += 1
        try:
            self._heartbeat[w] = time.time()
        finally:
            self._gen[w] += 1


class MetricsAggregator:
    """Parent-side merge of every slab row into one snapshot dict.

    Counters and busy seconds are summed; the batch latency is rebuilt as
    a real :class:`Histogram` (summed bucket counts + exact summed
    totals) and rendered through its own ``snapshot()``, so
    percentile/mean/bucket semantics are shared by construction, not
    re-implemented.

    Args:
        slab: The slab to aggregate (parent's allocated handle).
    """

    def __init__(self, slab: MetricsSlab):
        self.slab = slab
        self._retired = _empty_row()
        self._last_good: dict[int, dict] = {}

    # ------------------------------------------------------------- samples

    def read_all(self) -> dict[int, dict]:
        """Latest consistent sample per worker (last good on a torn poll)."""
        for worker_id in range(self.slab.n_workers):
            sample = self.slab.read_worker(worker_id)
            if sample is not None:
                self._last_good[worker_id] = sample
        return dict(self._last_good)

    def absorb_retired(self, worker_id: int) -> None:
        """Fold a dead worker's final row into the aggregate, then zero it.

        Called by the front-end reaper before the replacement worker
        (whose fresh telemetry restarts at zero) reuses the row; without
        this, a respawn would erase the dead worker's contribution from
        the aggregate.  ``allow_torn=True`` because the writer is gone:
        a death mid-write can leave the generation odd forever, and the
        final row is better than dropping the worker's whole history.
        """
        sample = self.slab.read_worker(worker_id, allow_torn=True)
        if sample is None:
            sample = self._last_good.get(worker_id)
        if sample is not None:
            _add(self._retired, sample)
        self._last_good.pop(worker_id, None)
        self.slab.clear_row(worker_id)

    # ----------------------------------------------------------- aggregate

    def aggregate(self) -> dict:
        """Merged snapshot: counters and busy seconds summed, latency rebuilt.

        Returns ``{"counters": {...}, "gauges": {"busy_seconds": s},
        "histograms": {"batch_latency": Histogram.snapshot()},
        "workers_reporting": n}``.
        """
        samples = self.read_all()
        merged = _empty_row()
        _add(merged, self._retired)
        for sample in samples.values():
            _add(merged, sample)
        return {
            "counters": merged["counters"],
            "gauges": {"busy_seconds": merged["busy_seconds"]},
            "histograms": {
                "batch_latency": merged["batch_latency"].snapshot(),
            },
            "workers_reporting": len(samples),
        }

    def liveness(self) -> dict[str, dict]:
        """Per-worker heartbeat ages keyed by worker id (as strings)."""
        now = time.time()
        samples = self.read_all()
        report: dict[str, dict] = {}
        for worker_id in range(self.slab.n_workers):
            sample = samples.get(worker_id)
            if sample is None or not sample["heartbeat_unix"]:
                report[str(worker_id)] = {"reporting": False,
                                          "age_s": None, "stale": True}
                continue
            age = max(0.0, now - sample["heartbeat_unix"])
            report[str(worker_id)] = {
                "reporting": True,
                "age_s": age,
                "stale": age > _LIVENESS_TIMEOUT_S,
            }
        return report
