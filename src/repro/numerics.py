"""Shared numerically-stable scalar kernels.

The logistic function and the binary cross-entropy appear in three places
(the GBDT boosting objective, the LR head, and the synthetic label model);
this module is the single implementation all of them import, so the exact
clipping/branching behaviour cannot drift between components; the same
holds for the raw-feature finiteness test, :func:`check_finite`, and for
the order the GBDT+LR logit adds its trees' terms in,
:func:`tree_order_sum` (the leaf design's ``X θ`` and the compiled
scorer).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "sigmoid", "binary_cross_entropy", "check_finite", "tree_order_sum",
]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    Splits on the sign of ``z`` so neither branch ever exponentiates a
    positive argument — no overflow for any finite input.

    The computation dtype follows the input: float32 stays float32 (the
    GBDT reduced-precision hot path), everything else is done in float64
    exactly as before.
    """
    z = np.asarray(z)
    if z.dtype != np.float32:
        z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    exp_z = np.exp(z[~pos])
    out[~pos] = exp_z / (1.0 + exp_z)
    return out


def binary_cross_entropy(labels: np.ndarray, probabilities: np.ndarray) -> float:
    """Mean BCE with probability clipping for numerical safety."""
    probabilities = np.clip(probabilities, 1e-12, 1.0 - 1e-12)
    return float(
        -np.mean(
            labels * np.log(probabilities)
            + (1.0 - labels) * np.log(1.0 - probabilities)
        )
    )


def check_finite(values: np.ndarray) -> tuple | None:
    """Raise ``ValueError`` unless every value is finite; else ``(min, max)``.

    NaN propagates through min and max and ±inf surfaces in one, so no
    mask of ``values``' shape is built.  Empty input passes (``None``).
    """
    if not values.size:
        return None
    low, high = values.min(), values.max()
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError("features must be finite")
    return low, high


def tree_order_sum(gathered: np.ndarray) -> np.ndarray:
    """Column sums of a C-contiguous ``(n_trees, n)`` array, in tree order.

    ``np.add.reduce(axis=0)`` adds row after row; over a single column
    it would reduce pairwise instead, so one row accumulates.
    """
    if gathered.shape[1] == 1:
        return np.add.accumulate(gathered, axis=0)[-1]
    return np.add.reduce(gathered, axis=0)
