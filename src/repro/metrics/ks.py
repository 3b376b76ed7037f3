"""Kolmogorov-Smirnov statistic for credit-risk model evaluation.

The KS statistic is the headline risk-ranking metric in the paper (Fig 1 and
all tables report KS).  For a binary classifier it is the maximum vertical
distance between the score CDF of the positive class and the score CDF of the
negative class, equivalently ``max(TPR - FPR)`` over all thresholds.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.auc import roc_curve
from repro.metrics.validation import check_binary_classification_inputs

__all__ = ["ks_score", "two_sample_ks"]


def ks_score(y_true: np.ndarray, y_score: np.ndarray) -> float:
    """Compute the KS statistic ``max_t (TPR(t) - FPR(t))``.

    This is the *signed* credit-scoring convention: the score is assumed to
    rank defaulters above non-defaulters, and the statistic is the largest
    lead of the bad-rate CDF over the good-rate CDF.  A model that ranks
    *backwards* (higher scores for safer customers) scores ~0 rather than
    being rewarded for its inverted separation — which is what "risk-ranking
    ability" means operationally, and what makes the paper's worst-province
    comparisons meaningful (ERM's spurious-feature inversions in small
    provinces must show up as failures).  For the unsigned two-distribution
    distance use :func:`two_sample_ks`.

    Args:
        y_true: Binary labels in {0, 1}.
        y_score: Real-valued scores, higher means more likely positive.

    Returns:
        KS statistic in ``[0, 1]``; higher means stronger risk ranking.
        Exactly 0 when the score never ranks any defaulter first.
    """
    fpr, tpr, _ = roc_curve(y_true, y_score)
    return float(np.max(tpr - fpr))


def two_sample_ks(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Two-sample KS distance between empirical CDFs of two score samples.

    This is the classical definition referenced by the paper ("the largest
    distance between their two cumulative distribution functions").  It is
    used in tests to cross-check :func:`ks_score`: splitting scores by label
    and measuring the two-sample KS must agree with the ROC-based formula.

    Args:
        sample_a: First sample of real values.
        sample_b: Second sample of real values.

    Returns:
        Supremum distance between the two empirical CDFs, in ``[0, 1]``.
    """
    sample_a = np.asarray(sample_a, dtype=np.float64).ravel()
    sample_b = np.asarray(sample_b, dtype=np.float64).ravel()
    if sample_a.size == 0 or sample_b.size == 0:
        raise ValueError("both samples must be non-empty")
    pooled = np.concatenate((sample_a, sample_b))
    pooled = np.unique(pooled)
    cdf_a = np.searchsorted(np.sort(sample_a), pooled, side="right") / sample_a.size
    cdf_b = np.searchsorted(np.sort(sample_b), pooled, side="right") / sample_b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))
