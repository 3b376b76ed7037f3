"""Bootstrap uncertainty for the ranking metrics.

The worst-province KS is computed on a few hundred rows for the smallest
provinces, so point estimates carry material sampling noise (the reason
several of the paper's close orderings are not statistically resolvable —
see EXPERIMENTS.md).  This module quantifies that: nonparametric bootstrap
confidence intervals for KS and AUC, and a two-model comparison that
bootstraps the *difference* on shared resamples (paired bootstrap), which
is the right test for "does method A really beat method B here?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.metrics.ks import ks_score
from repro.metrics.validation import check_binary_classification_inputs

__all__ = [
    "BootstrapInterval",
    "bootstrap_metric",
    "paired_bootstrap_difference",
]

Metric = Callable[[np.ndarray, np.ndarray], float]


@dataclass(frozen=True)
class BootstrapInterval:
    """A point estimate with a percentile bootstrap interval."""

    estimate: float
    lower: float
    upper: float
    confidence: float
    n_resamples: int

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def __str__(self) -> str:
        return (
            f"{self.estimate:.4f} "
            f"[{self.lower:.4f}, {self.upper:.4f}] "
            f"@{self.confidence:.0%}"
        )


def _resample_indices(
    rng: np.random.Generator, labels: np.ndarray
) -> np.ndarray:
    """One bootstrap resample guaranteed to contain both classes.

    Resamples uniformly with replacement; draws are rejected (rarely, and
    only for very small samples) until both classes appear so the metric
    stays defined.
    """
    n = labels.size
    for _ in range(100):
        idx = rng.integers(0, n, size=n)
        picked = labels[idx]
        if 0.0 < picked.mean() < 1.0:
            return idx
    raise RuntimeError("could not draw a two-class bootstrap resample")


def bootstrap_metric(
    y_true: np.ndarray,
    y_score: np.ndarray,
    metric: Metric,
    n_resamples: int = 500,
    confidence: float = 0.95,
    seed: int = 0,
) -> BootstrapInterval:
    """Percentile bootstrap interval for an arbitrary ranking metric.

    Args:
        y_true: Binary labels.
        y_score: Scores.
        metric: Callable ``metric(y_true, y_score) -> float``.
        n_resamples: Bootstrap replicates.
        confidence: Central interval mass.
        seed: RNG seed.

    Returns:
        A :class:`BootstrapInterval`.
    """
    y_true, y_score = check_binary_classification_inputs(y_true, y_score)
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if n_resamples < 10:
        raise ValueError("n_resamples must be >= 10")
    rng = np.random.default_rng(seed)
    estimate = metric(y_true, y_score)
    replicates = np.empty(n_resamples)
    for b in range(n_resamples):
        idx = _resample_indices(rng, y_true)
        replicates[b] = metric(y_true[idx], y_score[idx])
    alpha = (1.0 - confidence) / 2.0
    return BootstrapInterval(
        estimate=float(estimate),
        lower=float(np.quantile(replicates, alpha)),
        upper=float(np.quantile(replicates, 1.0 - alpha)),
        confidence=confidence,
        n_resamples=n_resamples,
    )


def paired_bootstrap_difference(
    y_true: np.ndarray,
    scores_a: np.ndarray,
    scores_b: np.ndarray,
    metric: Metric = ks_score,
    n_resamples: int = 500,
    confidence: float = 0.95,
    seed: int = 0,
) -> BootstrapInterval:
    """Bootstrap the metric difference ``metric(A) − metric(B)``.

    Both models are evaluated on the *same* resample (paired bootstrap),
    which removes the shared sampling noise and is far more powerful than
    comparing two independent intervals.  If the returned interval
    excludes 0, model A's advantage is resolvable at the given confidence.

    Args:
        y_true: Shared binary labels.
        scores_a: First model's scores.
        scores_b: Second model's scores (same rows).
        metric: Ranking metric to compare.
        n_resamples: Bootstrap replicates.
        confidence: Central interval mass.
        seed: RNG seed.

    Returns:
        Interval over the difference A − B.
    """
    y_true, scores_a = check_binary_classification_inputs(y_true, scores_a)
    _, scores_b = check_binary_classification_inputs(y_true, scores_b)
    rng = np.random.default_rng(seed)
    estimate = metric(y_true, scores_a) - metric(y_true, scores_b)
    replicates = np.empty(n_resamples)
    for b in range(n_resamples):
        idx = _resample_indices(rng, y_true)
        replicates[b] = metric(y_true[idx], scores_a[idx]) - metric(
            y_true[idx], scores_b[idx]
        )
    alpha = (1.0 - confidence) / 2.0
    return BootstrapInterval(
        estimate=float(estimate),
        lower=float(np.quantile(replicates, alpha)),
        upper=float(np.quantile(replicates, 1.0 - alpha)),
        confidence=confidence,
        n_resamples=n_resamples,
    )
