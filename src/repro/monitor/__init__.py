"""Drift monitoring: PSI-based stability reports and streaming accumulation."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "drift": (
        "ConceptDrift", "DriftReport", "FeatureDrift", "concept_drift_report",
        "drift_report", "population_stability_index",
    ),
    "streaming": ("StreamingPSI",),
})
