"""Production scoring service over persisted GBDT+LR artifacts.

The ROADMAP's north star is serving heavy traffic, not just training and
offline evaluation; this package is the request path.  It turns the JSON
artifacts :mod:`repro.persist` writes into an operated service:

* :mod:`~repro.serve.registry` — versioned model storage with
  champion/challenger slots and atomic promote/rollback (the canonical
  save/load surface, including bare artifact files).
* :mod:`~repro.serve.degradation` — streaming-PSI drift guard and
  challenger-failure fallback rules.
* :mod:`~repro.serve.telemetry` — latency histograms, throughput,
  fallback counters (service- and front-end-level).
* :mod:`~repro.serve.service` — :class:`ScoringService`, the
  single-process composition: one vectorized call per batch
  (bit-identical scores; ``bench/`` reports the per-row cost at batch 1
  and batch N).
* :mod:`~repro.serve.shm_publish` — shared-memory model publishing with
  generation counters (one physical copy, N zero-copy workers).
* :mod:`~repro.serve.frontend` — :class:`ScoringFrontend`, the
  asyncio-friendly bounded-queue layer fanning out to worker processes.
* :mod:`~repro.serve.lifecycle` — :class:`LifecycleController`, the
  closed drift → retrain → gated eval → promote/rollback loop.

The live telemetry plane (shared-memory metric slabs, online quality
monitors, health alerts, Prometheus/JSON exposition) lives in
:mod:`repro.obs.live`; the front-end wires it in when
``FrontendConfig.live_metrics`` is on.

See ``docs/serving.md`` for the registry layout, worker architecture,
backpressure semantics, degradation policy, telemetry schema and the
monitoring runbook.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "registry": ("CHALLENGER", "CHAMPION", "ModelRegistry", "ModelVersion"),
    "degradation": ("DriftGuard", "GuardDecision"),
    "frontend": (
        "FrontendConfig", "FrontendResult", "FrontendTicket",
        "ScoringFrontend",
    ),
    "telemetry": ("FrontendTelemetry", "ServingTelemetry"),
    "lifecycle": ("LifecycleController", "PromotionGates", "RetrainConfig"),
    "shm_publish": ("ModelPublisher", "PublishedModel"),
    "service": ("ScoringService",),
})
