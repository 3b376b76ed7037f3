"""Probability-quality metrics: reliability bins, ECE.

The paper's fairness discussion centres on *calibration* ("false positive
rates across groups should be similar", citing Kleinberg/Pleiss): a score
is trustworthy when predicted probabilities match realised default rates in
every subpopulation.  These metrics complement the rank-based KS/AUC with
probability-level diagnostics, including a per-environment calibration-gap
report in the spirit of the paper's multi-group view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.metrics.validation import check_binary_classification_inputs

__all__ = [
    "ReliabilityBin",
    "reliability_bins",
    "expected_calibration_error",
    "calibration_gap_by_environment",
]


@dataclass(frozen=True)
class ReliabilityBin:
    """One bin of the reliability diagram."""

    lower: float
    upper: float
    mean_predicted: float
    observed_rate: float
    count: int

    @property
    def gap(self) -> float:
        """|predicted − observed| within the bin."""
        return abs(self.mean_predicted - self.observed_rate)


def reliability_bins(
    y_true: np.ndarray, y_prob: np.ndarray, n_bins: int = 10
) -> list[ReliabilityBin]:
    """Equal-width reliability diagram bins over [0, 1].

    Empty bins are omitted, so the result may be shorter than ``n_bins``.
    """
    y_true, y_prob = check_binary_classification_inputs(y_true, y_prob)
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    # Clip the top so probability 1.0 lands in the final bin.
    indices = np.clip(
        np.searchsorted(edges, y_prob, side="right") - 1, 0, n_bins - 1
    )
    bins = []
    for b in range(n_bins):
        mask = indices == b
        count = int(mask.sum())
        if count == 0:
            continue
        bins.append(
            ReliabilityBin(
                lower=float(edges[b]),
                upper=float(edges[b + 1]),
                mean_predicted=float(y_prob[mask].mean()),
                observed_rate=float(y_true[mask].mean()),
                count=count,
            )
        )
    return bins


def expected_calibration_error(
    y_true: np.ndarray, y_prob: np.ndarray, n_bins: int = 10
) -> float:
    """ECE: count-weighted mean |predicted − observed| over bins."""
    bins = reliability_bins(y_true, y_prob, n_bins=n_bins)
    total = sum(b.count for b in bins)
    if total == 0:
        return 0.0
    return float(sum(b.count * b.gap for b in bins) / total)


def calibration_gap_by_environment(
    labels_by_env: Mapping[str, np.ndarray],
    probs_by_env: Mapping[str, np.ndarray],
    n_bins: int = 10,
) -> dict[str, float]:
    """Per-environment ECE — the multi-group calibration view.

    A fair (multi-calibrated) model keeps this roughly constant across
    environments; ERM's spurious reliance typically inflates it exactly in
    the underrepresented provinces.

    Args:
        labels_by_env: Environment -> binary labels.
        probs_by_env: Environment -> predicted probabilities.
        n_bins: Reliability bins.

    Returns:
        Environment -> ECE.
    """
    if set(labels_by_env) != set(probs_by_env):
        raise ValueError("labels and probabilities disagree on environments")
    return {
        name: expected_calibration_error(
            labels_by_env[name], probs_by_env[name], n_bins=n_bins
        )
        for name in sorted(labels_by_env)
    }
