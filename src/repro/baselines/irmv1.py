"""IRMv1 (Arjovsky et al., 2019): the gradient-penalty approximation of IRM.

The paper motivates meta-IRM by IRMv1's shortcomings ("IRMv1 is just an
approximation for IRM and fails to capture invariant correlations in many
cases"), so a faithful reproduction should include it for contrast.  IRMv1
fixes the classifier to a scalar dummy ``w = 1`` on top of the logits and
penalises, per environment, the squared gradient of the environment risk
with respect to that dummy:

    J(θ) = Σ_e R^e(θ) + λ · Σ_e ( d/dw R^e(w·θ) |_{w=1} )²

For the LR head everything is closed-form.  With logits ``z = Xθ`` and
probabilities ``p = σ(z)``:

    D_e      = mean[(p − y) · z]                       (the dummy gradient)
    dD_e/dθ  = Xᵀ[ (p − y) + p(1 − p)·z ] / n
    ∇penalty = 2 · D_e · dD_e/dθ
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import EnvironmentData
from repro.models.logistic import LogisticModel
from repro.timing import StepTimer
from repro.train.base import BaseTrainConfig, Trainer

__all__ = ["IRMv1Config", "IRMv1Trainer", "dummy_gradient_and_penalty_grad"]


@dataclass(frozen=True)
class IRMv1Config(BaseTrainConfig):
    """IRMv1 hyper-parameters.

    Attributes:
        penalty_weight: λ on the squared dummy-classifier gradient.  The
            original paper anneals this to very large values; a moderate
            default keeps the optimisation stable with plain GD.
    """

    penalty_weight: float = 10.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.penalty_weight < 0:
            raise ValueError("penalty_weight must be non-negative")


def dummy_gradient_and_penalty_grad(
    model: LogisticModel,
    theta: np.ndarray,
    env: EnvironmentData,
) -> tuple[float, np.ndarray]:
    """Per-environment dummy gradient D_e and ∇_θ(D_e²).

    Args:
        model: LR model (provides dimensions; l2 is not part of the penalty).
        theta: Current parameters.
        env: Environment whose invariance penalty is computed.

    Returns:
        Tuple ``(D_e, grad_of_D_e_squared)``.
    """
    labels = np.asarray(env.labels, dtype=np.float64).ravel()
    logits = model.logits(theta, env.features)
    prob = 1.0 / (1.0 + np.exp(-np.clip(logits, -500, 500)))
    residual = prob - labels
    n = labels.size
    dummy_grad = float(residual @ logits) / n
    weights = prob * (1.0 - prob)
    inner = residual + weights * logits
    d_dummy_dtheta = model._rmatvec(env.features, inner) / n
    return dummy_grad, 2.0 * dummy_grad * d_dummy_dtheta


class IRMv1Trainer(Trainer):
    """Penalty-based IRM on the LR head (for contrast with meta-IRM)."""

    name = "IRMv1"
    config_class = IRMv1Config
    config: IRMv1Config

    def _step(self, model: LogisticModel, theta: np.ndarray,
              environments: list[EnvironmentData], timer: StepTimer):
        weight = self.config.penalty_weight
        objective = 0.0
        penalty = 0.0
        grad = np.zeros_like(theta)
        env_losses: dict[str, float] = {}
        with timer.step("inner_optimization"):
            for env in environments:
                loss_e, grad_e = model.loss_and_gradient(
                    theta, env.features, env.labels
                )
                dummy, penalty_grad = dummy_gradient_and_penalty_grad(
                    model, theta, env
                )
                env_losses[env.name] = loss_e
                penalty += weight * dummy**2
                objective += loss_e + weight * dummy**2
                grad += grad_e + weight * penalty_grad
        with timer.step("backward_propagation"):
            grad = grad / len(environments)
            theta = self._optimizer.step(theta, grad)
        extra = (
            {"penalty": float(penalty),
             "grad_norm": float(np.linalg.norm(grad))}
            if self._tracer.enabled else {}
        )
        return theta, objective, env_losses, extra
