"""Explainability: raw-feature attribution of the GBDT+LR head."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "attribution": (
        "attribution_by_role", "head_feature_attribution",
        "leaf_path_features", "spurious_reliance",
    ),
})
