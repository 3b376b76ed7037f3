"""Prediction models: the logistic-regression head of GBDT+LR."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "logistic": ("LogisticModel", "binary_cross_entropy", "sigmoid"),
})
