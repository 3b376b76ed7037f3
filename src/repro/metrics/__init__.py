"""Evaluation metrics: AUC, KS, per-environment fairness, operating curves."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "uncertainty": (
        "BootstrapInterval", "bootstrap_metric",
        "paired_bootstrap_difference",
    ),
    "probability": (
        "ReliabilityBin", "calibration_gap_by_environment",
        "expected_calibration_error", "reliability_bins",
    ),
    "auc": ("auc_score", "roc_curve"),
    "ks": ("ks_score", "two_sample_ks"),
    "invariance": ("coefficient_recovery", "cosine_similarity", "weight_mass"),
    "fairness": (
        "EnvironmentScores", "FairnessReport", "evaluate_environments",
        "scorable_environments",
    ),
    "calibration": (
        "ConfusionCounts", "confusion_at_threshold", "false_positive_rate",
        "bad_debt_rate", "refusal_rate", "threshold_sweep",
    ),
})
