"""Algorithm 1's outer iteration, shared by meta-IRM and LightMIRM.

Both meta-IRM and LightMIRM perform the outer update

    θ ← θ − β ∇_θ ( Σ_m R_meta(θ̄_m) + λ σ )           (Eq. 6)

where ``θ̄_m = θ − α ∇R^m(θ)``.  Differentiating a function ``L(θ̄_m)`` of
the adapted parameters back to ``θ`` gives the MAML chain rule

    dL/dθ = (I − α H_m(θ)) · ∇_{θ̄} L(θ̄_m)
          = ∇_{θ̄} L(θ̄_m) − α · H_m(θ) · ∇_{θ̄} L(θ̄_m)

which we evaluate with one Hessian-vector product on the inner environment
(no Hessian is materialised), reusing the inner step's ``σ(X_m θ)``.  The
σ penalty contributes through

    ∂σ/∂R_meta(θ̄_m) = (R_meta(θ̄_m) − mean) / (M σ)

so the total outer gradient is a weighted sum of per-environment chain-rule
gradients with weights ``1 + λ · ∂σ/∂R_m``.

:class:`MetaTrainer` runs that step.  Algorithm 2 (LightMIRM) is Algorithm 1
(meta-IRM) with one change, the meta-loss ``R_meta(θ̄_m)``, which each
subclass supplies as :meth:`MetaTrainer._meta_loss`.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.data.dataset import EnvironmentData
from repro.models.logistic import LogisticModel
from repro.timing import StepTimer
from repro.train.base import Trainer

__all__ = [
    "backprop_through_inner_step",
    "sigma_and_weights",
    "sigma_of",
]


def backprop_through_inner_step(
    model: LogisticModel,
    theta: np.ndarray,
    inner_env: EnvironmentData,
    outer_gradient_at_adapted: np.ndarray,
    inner_lr: float,
    first_order: bool = False,
    prob: np.ndarray | None = None,
) -> np.ndarray:
    """Apply ``(I − α H_m(θ))`` to an outer-loss gradient.

    Args:
        model: The LR model providing the HVP.
        theta: Parameters *before* the inner step (where the Hessian of the
            inner environment is evaluated).
        inner_env: Environment ``m`` whose loss defined the inner step.
        outer_gradient_at_adapted: ``∇_{θ̄} L(θ̄_m)`` — gradient of whatever
            outer loss, evaluated at the adapted parameters.
        inner_lr: Inner step size α.
        first_order: If True, skip the curvature term (FOMAML ablation),
            returning the outer gradient unchanged.
        prob: ``σ(X_m θ)`` when the caller holds it from the inner step.

    Returns:
        ``dL/dθ`` as a new array.
    """
    if first_order:
        return outer_gradient_at_adapted.copy()
    hvp = model.hessian_vector_product(
        theta, inner_env.features, inner_env.labels, outer_gradient_at_adapted,
        prob=prob,
    )
    return outer_gradient_at_adapted - inner_lr * hvp


def sigma_of(meta_losses: np.ndarray) -> float:
    """Population standard deviation of the meta-losses (Eq. 7)."""
    meta_losses = np.asarray(meta_losses, dtype=np.float64)
    if meta_losses.size == 0:
        raise ValueError("need at least one meta-loss")
    return float(np.std(meta_losses))


def sigma_and_weights(
    meta_losses: np.ndarray, lambda_penalty: float
) -> tuple[float, np.ndarray]:
    """σ and the per-environment outer-gradient weights ``1 + λ ∂σ/∂R_m``.

    When σ is (numerically) zero the penalty's subgradient is taken as zero,
    so the weights collapse to all-ones.

    Args:
        meta_losses: Array of ``R_meta(θ̄_m)`` values, one per environment.
        lambda_penalty: Penalty strength λ.

    Returns:
        Tuple ``(sigma, weights)`` with ``weights.shape == meta_losses.shape``.
    """
    meta_losses = np.asarray(meta_losses, dtype=np.float64)
    sigma = sigma_of(meta_losses)
    n = meta_losses.size
    if sigma < 1e-12 or lambda_penalty == 0.0:
        return sigma, np.ones(n)
    dsigma = (meta_losses - meta_losses.mean()) / (n * sigma)
    return sigma, 1.0 + lambda_penalty * dsigma


class MetaTrainer(Trainer):
    """One outer iteration of Eq. 6; subclasses supply the meta-loss.

    Per environment m: the inner step ``θ̄_m = θ − α ∇R^m(θ)``, then the
    meta-loss ``R_meta(θ̄_m)`` and its gradient at ``θ̄_m``; then one
    σ-weighted chain-rule pass back to ``θ`` and the outer update.  The
    config must carry ``inner_lr``, ``lambda_penalty`` and ``first_order``.
    """

    def _begin_fit(self, environments: list[EnvironmentData]) -> None:
        # The meta-loss's environment draws (mini-batches draw elsewhere).
        self._rng = np.random.default_rng(self.config.seed)

    @abc.abstractmethod
    def _meta_loss(
        self,
        model: LogisticModel,
        m: int,
        theta_bar: np.ndarray,
        environments: list[EnvironmentData],
    ) -> tuple[float, np.ndarray]:
        """``R_meta(θ̄_m)`` and its gradient with respect to ``θ̄_m``."""

    def _trace_fields(self, environments: list[EnvironmentData]) -> dict:
        """Method-specific fields of a traced epoch event (default none)."""
        return {}

    def _step(self, model: LogisticModel, theta: np.ndarray,
              environments: list[EnvironmentData], timer: StepTimer):
        cfg = self.config
        env_losses: dict[str, float] = {}
        meta_losses = np.zeros(len(environments))
        meta_grads: list[np.ndarray] = []
        # σ(X_m θ) of each inner step, reused by its HVP at the same θ.
        probs: list[np.ndarray] = []
        for m, env in enumerate(environments):
            with timer.step("inner_optimization"):
                probs.append(model.predict_proba(theta, env.features))
                loss_m, grad_m = model.loss_and_gradient(
                    theta, env.features, env.labels, prob=probs[m]
                )
                theta_bar = theta - cfg.inner_lr * grad_m
            env_losses[env.name] = loss_m
            with timer.step("calculating_meta_losses"):
                meta_losses[m], meta_grad = self._meta_loss(
                    model, m, theta_bar, environments
                )
            meta_grads.append(meta_grad)

        with timer.step("backward_propagation"):
            sigma, weights = sigma_and_weights(meta_losses,
                                               cfg.lambda_penalty)
            outer_grad = np.zeros_like(theta)
            for m, env in enumerate(environments):
                outer_grad += weights[m] * backprop_through_inner_step(
                    model, theta, env, meta_grads[m], cfg.inner_lr,
                    first_order=cfg.first_order, prob=probs[m],
                )
            theta = self._optimizer.step(theta, outer_grad)

        penalty = cfg.lambda_penalty * sigma
        objective = float(meta_losses.sum() + penalty)
        extra = {}
        if self._tracer.enabled:
            extra = {
                "penalty": float(penalty),
                "meta_loss_total": float(meta_losses.sum()),
                "meta_losses": {
                    env.name: float(meta_losses[m])
                    for m, env in enumerate(environments)
                },
                **self._trace_fields(environments),
                "grad_norm": float(np.linalg.norm(outer_grad)),
            }
        return theta, objective, env_losses, extra
