"""End-to-end GBDT+LR pipeline and the shared feature-extraction stage."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "extractor": ("GBDTFeatureExtractor", "default_gbdt_params"),
    "pipeline": ("LoanDefaultPipeline",),
})
