"""Per-worker shared-memory metrics slabs + the parent-side aggregator.

The multi-worker front-end keeps each worker's :class:`~repro.serve.telemetry.ServingTelemetry`
inside that worker's process; the run's only live view used to be "wait
for the process to exit and read a file".  A :class:`MetricsSlab` makes
the numbers observable *while serving*: the parent allocates one
fixed-layout shared-memory block (one slab row per worker, laid out by a
declarative :class:`SlabLayout`), each worker attaches writable and
publishes its counters/gauges/histogram buckets after every batch, and a
parent-side :class:`MetricsAggregator` reads every row torn-free and
merges them into exactly the snapshot dicts the rest of the
observability layer already speaks (:class:`~repro.obs.metrics.Histogram`
snapshot semantics, byte-compatible with the PR 4 schema — see the
equivalence tests).

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
from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import Histogram
from repro.parallel.shared import PackSpec, SharedArrayPack

__all__ = [
    "SlabLayout",
    "MetricsSlab",
    "SlabWriter",
    "MetricsAggregator",
    "SERVING_SLAB_LAYOUT",
    "telemetry_to_row",
]

#: How many seqlock retries a reader attempts before reporting a tear.
_MAX_READ_RETRIES = 64


@dataclass(frozen=True)
class SlabLayout:
    """Declarative fixed layout of one metrics slab row.

    Every worker writes the *same* named quantities at the same offsets,
    which is what lets the parent merge rows with plain vectorised sums.

    Attributes:
        counters: Monotonic int64 counter names, in storage order.
        gauges: Float64 last-value gauge names, in storage order.
        histograms: ``(name, bucket_bounds)`` pairs; each contributes a
            ``len(bounds) + 1`` int64 bucket-count vector (last bucket =
            +Inf overflow) and one float64 exact-sum cell per row.
    """

    counters: tuple[str, ...] = ()
    gauges: tuple[str, ...] = ()
    histograms: tuple[tuple[str, tuple[float, ...]], ...] = ()

    def __post_init__(self) -> None:
        names = (list(self.counters) + list(self.gauges)
                 + [name for name, _ in self.histograms])
        if len(names) != len(set(names)):
            raise ValueError("slab metric names must be unique")
        if not names:
            raise ValueError("a slab layout needs at least one metric")

    def to_meta(self) -> dict:
        """JSON-compatible encoding carried inside the PackSpec meta."""
        return {
            "counters": list(self.counters),
            "gauges": list(self.gauges),
            "histograms": [
                [name, [float(b) for b in bounds]]
                for name, bounds in self.histograms
            ],
        }

    @classmethod
    def from_meta(cls, meta: dict) -> "SlabLayout":
        """Rebuild the layout a spec's meta describes (worker side)."""
        return cls(
            counters=tuple(meta["counters"]),
            gauges=tuple(meta["gauges"]),
            histograms=tuple(
                (name, tuple(bounds)) for name, bounds in meta["histograms"]
            ),
        )


#: The serving layout: one row mirrors one worker's ServingTelemetry.
#: ``fallbacks`` flattens the per-reason dict to its total (reasons stay
#: worker-local detail); the latency buckets match
#: :data:`repro.serve.telemetry.DEFAULT_BUCKETS` so merged histograms are
#: byte-compatible with single-process ``LatencyHistogram`` snapshots.
SERVING_SLAB_LAYOUT = SlabLayout(
    counters=("rows_scored", "batches", "requests", "fallbacks"),
    gauges=("busy_seconds",),
    histograms=(
        ("batch_latency",
         (1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1,
          1.0, 3.0, 10.0)),
    ),
)


def telemetry_to_row(telemetry) -> tuple[np.ndarray, np.ndarray,
                                         list[tuple[np.ndarray, float]]]:
    """Flatten one :class:`ServingTelemetry` into SERVING_SLAB_LAYOUT arrays.

    Returns ``(counters, gauges, [(bucket_counts, total), ...])`` in the
    layout's storage order, ready for :meth:`SlabWriter.publish`.
    """
    counters = np.array(
        [telemetry.rows_scored, telemetry.batches, telemetry.requests,
         sum(telemetry.fallbacks.values())],
        dtype=np.int64,
    )
    gauges = np.array([telemetry.busy_seconds], dtype=np.float64)
    hist = telemetry.batch_latency
    return counters, gauges, [(hist.counts, hist.total)]


class MetricsSlab:
    """One shared block of per-worker metric rows with seqlock reads.

    Parent::

        slab = MetricsSlab.allocate(SERVING_SLAB_LAYOUT, n_workers=4)
        spawn_workers(slab.spec)           # only the spec is pickled
        sample = slab.read_worker(0)       # torn-free dict or None
        slab.dispose()

    Worker::

        writer = MetricsSlab.attach(spec).writer(worker_id)
        writer.publish(counters, gauges, histograms)
    """

    def __init__(self, pack: SharedArrayPack, layout: SlabLayout,
                 n_workers: int):
        self._pack = pack
        self.layout = layout
        self.n_workers = n_workers
        self._arrays = pack.writable_arrays()

    @property
    def spec(self) -> PackSpec:
        """The picklable handle workers attach with."""
        return self._pack.spec

    @classmethod
    def _layouts(cls, layout: SlabLayout,
                 n_workers: int) -> dict[str, tuple[tuple[int, ...], str]]:
        layouts: dict[str, tuple[tuple[int, ...], str]] = {
            "gen": ((n_workers,), "<i8"),
            "heartbeat_unix": ((n_workers,), "<f8"),
            "counters": ((n_workers, len(layout.counters)), "<i8"),
            "gauges": ((n_workers, max(len(layout.gauges), 1)), "<f8"),
        }
        for name, bounds in layout.histograms:
            layouts[f"hist/{name}/counts"] = (
                (n_workers, len(bounds) + 1), "<i8"
            )
            layouts[f"hist/{name}/total"] = ((n_workers,), "<f8")
        return layouts

    @classmethod
    def allocate(cls, layout: SlabLayout, n_workers: int) -> "MetricsSlab":
        """Parent side: one zero-initialised slab row per worker."""
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        pack = SharedArrayPack.allocate(
            cls._layouts(layout, n_workers),
            meta={"slab_layout": layout.to_meta(),
                  "n_workers": int(n_workers)},
        )
        return cls(pack, layout, n_workers)

    @classmethod
    def attach(cls, spec: PackSpec) -> "MetricsSlab":
        """Worker side: writable views of the parent's block."""
        meta = spec.metadata()
        layout = SlabLayout.from_meta(meta["slab_layout"])
        pack = SharedArrayPack.attach(spec, writable=True)
        return cls(pack, layout, int(meta["n_workers"]))

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

        Returns None for a row that has never been written, or — after
        bounded retries — one that is being written *right now* (the next
        poll will get it).  ``allow_torn=True`` accepts the last state
        regardless, which is correct once the writer process is known
        dead (a death mid-write leaves the generation odd forever).
        """
        arrays = self._arrays
        gen = arrays["gen"]
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
        sample: dict = {
            "heartbeat_unix": float(arrays["heartbeat_unix"][worker_id]),
            "counters": {
                name: int(value) for name, value in zip(
                    self.layout.counters,
                    np.array(arrays["counters"][worker_id]),
                )
            },
            "gauges": {
                name: float(value) for name, value in zip(
                    self.layout.gauges,
                    np.array(arrays["gauges"][worker_id]),
                )
            },
            "histograms": {},
        }
        for name, bounds in self.layout.histograms:
            sample["histograms"][name] = {
                "bounds": bounds,
                "counts": np.array(arrays[f"hist/{name}/counts"][worker_id]),
                "total": float(arrays[f"hist/{name}/total"][worker_id]),
            }
        return sample

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
        self._slab = slab
        self.worker_id = worker_id
        arrays = slab._arrays
        self._gen = arrays["gen"]
        self._heartbeat = arrays["heartbeat_unix"]
        self._counters = arrays["counters"]
        self._gauges = arrays["gauges"]
        self._hists = [
            (arrays[f"hist/{name}/counts"], arrays[f"hist/{name}/total"])
            for name, _ in slab.layout.histograms
        ]
        self._n_published = 0

    @property
    def n_published(self) -> int:
        return self._n_published

    def publish(
        self,
        counters: np.ndarray,
        gauges: np.ndarray | None = None,
        histograms: list[tuple[np.ndarray, float]] | None = None,
    ) -> None:
        """Overwrite this row with absolute values, seqlock-bracketed.

        Values are *absolute* (the worker's lifetime totals), not deltas
        — so a missed publish is self-healing and the parent needs no
        per-row bookkeeping beyond "absorb the final row when a worker
        dies".
        """
        w = self.worker_id
        self._gen[w] += 1          # odd: row is being written
        try:
            self._counters[w, :] = counters
            if gauges is not None and len(gauges):
                self._gauges[w, :len(gauges)] = gauges
            for (counts, totals), payload in zip(self._hists,
                                                 histograms or ()):
                counts[w, :] = payload[0]
                totals[w] = float(payload[1])
            self._heartbeat[w] = time.time()
        finally:
            self._gen[w] += 1      # even: row is consistent again
        self._n_published += 1

    def publish_telemetry(self, telemetry) -> None:
        """Publish one :class:`ServingTelemetry` (SERVING_SLAB_LAYOUT rows)."""
        counters, gauges, hists = telemetry_to_row(telemetry)
        self.publish(counters, gauges, hists)

    def heartbeat(self) -> None:
        """Touch the liveness clock without republishing metrics."""
        w = self.worker_id
        self._gen[w] += 1
        try:
            self._heartbeat[w] = time.time()
        finally:
            self._gen[w] += 1


@dataclass
class _RetiredTotals:
    """Final rows of dead workers, folded into every later aggregate."""

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    hist_counts: dict[str, np.ndarray] = field(default_factory=dict)
    hist_totals: dict[str, float] = field(default_factory=dict)

    def absorb(self, layout: SlabLayout, sample: dict) -> None:
        for name in layout.counters:
            self.counters[name] = (self.counters.get(name, 0)
                                   + sample["counters"][name])
        for name in layout.gauges:
            self.gauges[name] = (self.gauges.get(name, 0.0)
                                 + sample["gauges"][name])
        for name, _ in layout.histograms:
            hist = sample["histograms"][name]
            if name in self.hist_counts:
                self.hist_counts[name] = self.hist_counts[name] + hist["counts"]
            else:
                self.hist_counts[name] = np.array(hist["counts"])
            self.hist_totals[name] = (self.hist_totals.get(name, 0.0)
                                      + hist["total"])


class MetricsAggregator:
    """Parent-side merge of every slab row into PR 4 snapshot dicts.

    The merged payload has exactly the shape a
    :class:`~repro.obs.metrics.MetricsRegistry` snapshot gives one
    process — counters summed, histograms rebuilt as a real
    :class:`Histogram` (summed bucket counts + exact summed totals) and
    rendered through its own ``snapshot()``, so percentile/mean/bucket
    semantics are shared by construction, not re-implemented.

    Args:
        slab: The slab to aggregate (parent's allocated handle).
        liveness_timeout_s: Heartbeat age beyond which a worker is
            reported stale in :meth:`liveness`.
    """

    def __init__(self, slab: MetricsSlab, liveness_timeout_s: float = 5.0):
        self.slab = slab
        self.liveness_timeout_s = liveness_timeout_s
        self._retired = _RetiredTotals()
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
            self._retired.absorb(self.slab.layout, sample)
        self._last_good.pop(worker_id, None)
        arrays = self.slab._arrays
        arrays["gen"][worker_id] = 0
        arrays["counters"][worker_id, :] = 0
        arrays["gauges"][worker_id, :] = 0.0
        arrays["heartbeat_unix"][worker_id] = 0.0
        for name, _ in self.slab.layout.histograms:
            arrays[f"hist/{name}/counts"][worker_id, :] = 0
            arrays[f"hist/{name}/total"][worker_id] = 0.0

    # ----------------------------------------------------------- aggregate

    def aggregate(self) -> dict:
        """Merged snapshot: counters/gauges summed, histograms rebuilt.

        Returns ``{"counters": {...}, "gauges": {...}, "histograms":
        {name: Histogram.snapshot()}, "workers_reporting": n}`` —
        the ``metrics`` record shape of the PR 4 run-log schema plus the
        reporting count.
        """
        layout = self.slab.layout
        samples = self.read_all()
        counters = {name: self._retired.counters.get(name, 0)
                    for name in layout.counters}
        gauges = {name: self._retired.gauges.get(name, 0.0)
                  for name in layout.gauges}
        for sample in samples.values():
            for name in layout.counters:
                counters[name] += sample["counters"][name]
            for name in layout.gauges:
                gauges[name] += sample["gauges"][name]
        histograms: dict[str, dict] = {}
        for name, bounds in layout.histograms:
            merged = Histogram(bounds)
            if name in self._retired.hist_counts:
                merged.counts += self._retired.hist_counts[name]
                merged.total += self._retired.hist_totals[name]
            for sample in samples.values():
                hist = sample["histograms"][name]
                merged.counts += hist["counts"]
                merged.total += hist["total"]
            histograms[name] = merged.snapshot()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
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
                "stale": age > self.liveness_timeout_s,
            }
        return report
