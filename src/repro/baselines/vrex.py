"""V-REx baseline (Krueger et al., 2021).

Risk extrapolation: minimise the mean of the per-environment risks plus a
penalty on their variance,

    J(θ) = mean_e R_e(θ) + λ_v · Var_e(R_e(θ)),

which pulls the environments' risks together — the variance-based fairness
idea the paper contrasts with IRM's bi-level formulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import EnvironmentData
from repro.models.logistic import LogisticModel
from repro.timing import StepTimer
from repro.train.base import BaseTrainConfig, Trainer

__all__ = ["VRExConfig", "VRExTrainer"]


@dataclass(frozen=True)
class VRExConfig(BaseTrainConfig):
    """V-REx hyper-parameters.

    Attributes:
        variance_weight: Penalty λ_v on the variance of environment risks.
    """

    variance_weight: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.variance_weight < 0:
            raise ValueError("variance_weight must be non-negative")


class VRExTrainer(Trainer):
    """Mean-plus-variance-of-risks minimisation."""

    name = "V-REx"
    config_class = VRExConfig
    config: VRExConfig

    def _step(self, model: LogisticModel, theta: np.ndarray,
              environments: list[EnvironmentData], timer: StepTimer):
        cfg = self.config
        n_envs = len(environments)
        with timer.step("inner_optimization"):
            losses, grads = self._environment_losses(model, theta,
                                                     environments)
        with timer.step("backward_propagation"):
            mean_loss = losses.mean()
            # d/dθ [mean + λ_v Var] = Σ_e [1/M + 2λ_v (L_e - mean)/M] ∇L_e
            coeffs = (
                1.0 / n_envs
                + 2.0 * cfg.variance_weight * (losses - mean_loss) / n_envs
            )
            grad = self._weighted_sum(coeffs, grads)
            theta = self._optimizer.step(theta, grad)
        penalty = cfg.variance_weight * losses.var()
        extra = {}
        if self._tracer.enabled:
            extra = {
                "penalty": float(penalty),
                "grad_norm": float(np.linalg.norm(grad)),
            }
        env_losses = dict(zip([env.name for env in environments],
                              losses.tolist()))
        return theta, float(mean_loss + penalty), env_losses, extra
