"""Synthetic auto-loan platform data: schema, provinces, drift, generation."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "dataset": (
        "EnvironmentData", "LoanDataset", "group_rows",
    ),
    "generator": (
        "GeneratorConfig", "LoanDataGenerator", "generate_default_dataset",
    ),
    "provinces": (
        "ProvinceProfile", "ProvinceRegistry", "default_registry",
        "extended_registry",
    ),
    "schema": (
        "VEHICLE_TYPES", "CausalRole", "FeatureBlock", "FeatureSpec",
        "LoanFeatureSchema", "build_schema",
    ),
    "splits": (
        "TrainTestSplit", "iid_split", "temporal_split", "validation_split",
    ),
})
