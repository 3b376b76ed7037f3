"""Logistic regression head with closed-form derivatives.

The paper's predictor (Eq. 2) is a plain LR model over the GBDT leaf
encoding; meta-IRM and LightMIRM differentiate *through* an inner SGD step
on it, which requires Hessian-vector products.  For logistic regression all
of these have exact closed forms:

* loss            ``R(θ) = mean BCE + (l2/2)·||θ||²``
* gradient        ``∇R = Xᵀ(p − y)/n + l2·θ``
* HVP             ``H v = Xᵀ(w ⊙ X v)/n + l2·v`` with ``w = p(1 − p)``

so the MAML chain rule ``(I − αH)·g`` is computed without materialising the
Hessian — the same quantities PyTorch's double backward would produce.  The
implementation only computes ``X θ`` and ``Xᵀ v``, so ``X`` may be a dense
array, the GBDT+LR multi-hot :class:`~repro.gbdt.leaf_encoder.LeafDesign`,
or any other matrix supporting those two products.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.numerics import binary_cross_entropy, sigmoid

if TYPE_CHECKING:
    from repro.gbdt.leaf_encoder import LeafDesign

    Matrix = np.ndarray | LeafDesign

__all__ = ["LogisticModel", "sigmoid", "binary_cross_entropy"]


class LogisticModel:
    """Fixed-dimension logistic regression with analytic derivatives.

    The model itself is stateless with respect to parameters: every method
    takes the parameter vector ``theta`` explicitly, which is what the
    meta-learning algorithms need (they evaluate losses and gradients at
    many hypothetical parameter vectors per iteration).

    Attributes:
        n_features: Dimension of ``theta``.
        l2: L2 regularisation strength added to loss/gradient/HVP.
    """

    def __init__(self, n_features: int, l2: float = 0.0):
        if n_features < 1:
            raise ValueError("n_features must be >= 1")
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        self.n_features = n_features
        self.l2 = l2

    def init_params(self, seed: int = 0, scale: float = 0.01) -> np.ndarray:
        """Random-normal initial parameters (paper: random initialisation)."""
        rng = np.random.default_rng(seed)
        return scale * rng.standard_normal(self.n_features)

    # ----------------------------------------------------------------- core

    def logits(self, theta: np.ndarray, features: Matrix) -> np.ndarray:
        """Linear scores ``X θ``."""
        self._check(theta, features)
        product = features @ theta
        return np.asarray(product).ravel()

    def predict_proba(self, theta: np.ndarray, features: Matrix) -> np.ndarray:
        """Default probabilities ``σ(X θ)`` (Eq. 2 of the paper)."""
        return sigmoid(self.logits(theta, features))

    def loss(self, theta: np.ndarray, features: Matrix,
             labels: np.ndarray) -> float:
        """Environment risk ``R(D; θ)``: mean BCE plus L2 (Eq. 4)."""
        labels = np.asarray(labels, dtype=np.float64).ravel()
        prob = self.predict_proba(theta, features)
        loss = binary_cross_entropy(labels, prob)
        if self.l2:
            loss += 0.5 * self.l2 * float(theta @ theta)
        return loss

    def gradient(self, theta: np.ndarray, features: Matrix,
                 labels: np.ndarray) -> np.ndarray:
        """Exact gradient ``∇_θ R(D; θ)``."""
        labels = np.asarray(labels, dtype=np.float64).ravel()
        residual = self.predict_proba(theta, features) - labels
        grad = self._rmatvec(features, residual) / labels.size
        if self.l2:
            grad = grad + self.l2 * theta
        return grad

    def loss_and_gradient(
        self, theta: np.ndarray, features: Matrix, labels: np.ndarray,
        prob: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray]:
        """Loss and gradient sharing one forward pass.

        ``prob`` is ``σ(X θ)`` when the caller already holds it.
        """
        labels = np.asarray(labels, dtype=np.float64).ravel()
        if prob is None:
            prob = self.predict_proba(theta, features)
        loss = binary_cross_entropy(labels, prob)
        grad = self._rmatvec(features, prob - labels) / labels.size
        if self.l2:
            loss += 0.5 * self.l2 * float(theta @ theta)
            grad = grad + self.l2 * theta
        return loss, grad

    def hessian_vector_product(
        self,
        theta: np.ndarray,
        features: Matrix,
        labels: np.ndarray,
        vector: np.ndarray,
        prob: np.ndarray | None = None,
    ) -> np.ndarray:
        """Exact ``H(θ) v`` without forming the Hessian.

        ``H = Xᵀ diag(p(1-p)) X / n + l2·I`` for the BCE objective; labels
        do not enter the Hessian but are accepted for interface symmetry
        with :meth:`gradient`.  ``prob`` is ``σ(X θ)`` when the caller
        already holds it.
        """
        labels = np.asarray(labels, dtype=np.float64).ravel()
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if vector.shape[0] != self.n_features:
            raise ValueError(
                f"vector has {vector.shape[0]} entries, expected {self.n_features}"
            )
        if prob is None:
            prob = self.predict_proba(theta, features)
        weights = prob * (1.0 - prob)
        inner = np.asarray(features @ vector).ravel()
        hv = self._rmatvec(features, weights * inner) / labels.size
        if self.l2:
            hv = hv + self.l2 * vector
        return hv

    # ---------------------------------------------------------------- utils

    def _check(self, theta: np.ndarray, features: Matrix) -> None:
        theta = np.asarray(theta)
        if theta.shape != (self.n_features,):
            raise ValueError(
                f"theta has shape {theta.shape}, expected ({self.n_features},)"
            )
        if features.shape[1] != self.n_features:
            raise ValueError(
                f"features have {features.shape[1]} columns, "
                f"expected {self.n_features}"
            )

    @staticmethod
    def _rmatvec(features: Matrix, vector: np.ndarray) -> np.ndarray:
        """``Xᵀ v`` for any supported X, always returning a 1-D array."""
        return np.asarray(features.T @ vector).ravel()
