"""Live telemetry plane: slabs, aggregation, monitors, health, exposition.

``repro.obs`` (PR 4) is post-hoc — logs read after the run.  This
subpackage is the *live* half for the multi-worker serving stack:
a shared-memory metrics slab with one fixed row per worker (four
counters, busy seconds, batch-latency buckets + exact sum) and seqlock
torn-free parent reads (:mod:`~repro.obs.live.slab`), online quality
monitors (:mod:`~repro.obs.live.monitors`), a declarative health state
machine emitting ``alert`` events (:mod:`~repro.obs.live.health`), and
stdlib-only Prometheus/JSON exposition plus the ``repro obs top``
terminal view (:mod:`~repro.obs.live.export`,
:mod:`~repro.obs.live.top`).

Deliberately serve-agnostic: nothing here imports ``repro.serve``;
:class:`~repro.serve.frontend.ScoringFrontend` and the CLI do the
wiring.  ``docs/observability.md`` documents the slab layout, snapshot
shapes and alert schema.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "slab": ("MetricsSlab", "SlabWriter", "MetricsAggregator"),
    "monitors": (
        "ScoreDriftMonitor", "CalibrationMonitor", "SLOTracker", "SLOConfig",
    ),
    "health": ("HealthRule", "HealthMonitor", "DEFAULT_SERVING_RULES"),
    "export": ("MetricsExporter", "SnapshotFileWriter", "render_prometheus"),
    "top": ("render_top", "fetch_snapshot", "read_snapshot_file", "run_top"),
})
