"""Shared input validation for metric functions."""

from __future__ import annotations

import numpy as np

__all__ = ["check_binary_classification_inputs"]


def check_binary_classification_inputs(
    y_true: np.ndarray, y_score: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and normalise (labels, scores) for binary metrics.

    Args:
        y_true: Array-like of binary labels; must contain only 0s and 1s.
        y_score: Array-like of finite real scores, same length as ``y_true``.

    Returns:
        Tuple of 1-D float64 arrays ``(y_true, y_score)``.

    Raises:
        ValueError: On shape mismatch, empty input, non-binary labels or
            non-finite scores.
    """
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_score = np.asarray(y_score, dtype=np.float64).ravel()
    if y_true.size == 0:
        raise ValueError("empty input: no samples to evaluate")
    if y_true.shape != y_score.shape:
        raise ValueError(
            f"shape mismatch: y_true has {y_true.shape}, y_score has {y_score.shape}"
        )
    if not np.all((y_true == 0.0) | (y_true == 1.0)):
        raise ValueError("labels must be binary 0/1, got values "
                         f"{np.unique(y_true)[:10]}")
    if not np.all(np.isfinite(y_score)):
        raise ValueError("scores must be finite (found NaN or inf)")
    return y_true, y_score
