"""Unified observability layer: tracing, run logs, histograms, live telemetry.

Four pieces, all zero-dependency (stdlib + numpy) and disabled-by-default:

* :mod:`repro.obs.tracer` — :class:`Tracer` producing hierarchical spans
  and point events; the disabled tracer is a null object threaded through
  every training loop at near-zero cost.
* :mod:`repro.obs.runlog` — the documented JSONL schema, writer/reader
  and run manifest (config, seed, git describe, dataset fingerprint).
* :mod:`repro.obs.metrics` — :class:`Histogram`, the one metric
  primitive: every serving latency, local or merged across workers.
* :mod:`repro.obs.live` — the live telemetry plane for the serving
  stack: shared-memory metrics slabs, cross-process aggregation, online
  quality monitors, health alerts and Prometheus/JSON exposition.

``repro obs report|summary|diff`` renders a run log offline — per-step
Table III timings, per-layer span times and convergence curves without
re-running training — and ``repro obs top`` renders the live plane while
serving.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "metrics": ("Histogram", "LATENCY_BUCKETS"),
    "report": (
        "format_diff", "format_report", "format_summary", "health_lines",
        "load_run", "timing_tables",
    ),
    "runlog": (
        "ALERT_EVENT", "HEALTH_TRANSITION_EVENT", "LIFECYCLE_SPAN",
        "LIFECYCLE_STAGE_EVENT", "SCHEMA_VERSION", "RunLog", "RunLogReader",
        "RunLogWriter", "SchemaError", "dataset_fingerprint",
        "run_manifest_fields", "validate_record",
    ),
    "tracer": ("NULL_TRACER", "Tracer"),
})
