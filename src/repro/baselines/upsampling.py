"""Up-sampling baseline: rebalance underrepresented environments.

"This method adopts an up-sampling strategy in provinces with fewer samples.
Note that we could adjust the rate of negative samples in loss function
respectively."  Instead of physically duplicating rows we use the exact
equivalent: weight each environment's mean loss equally (raising the
effective sampling rate of small provinces), optionally combined with a
positive-class weight for the within-environment imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import EnvironmentData
from repro.models.logistic import LogisticModel
from repro.timing import StepTimer
from repro.train.base import BaseTrainConfig, Trainer

__all__ = ["UpSamplingConfig", "UpSamplingTrainer"]


@dataclass(frozen=True)
class UpSamplingConfig(BaseTrainConfig):
    """Up-sampling hyper-parameters.

    Attributes:
        power: Exponent on environment size when computing weights; 0 gives
            fully equalised environments (each province counts the same),
            1 recovers plain ERM.  Intermediate values partially rebalance.
        positive_weight: Multiplier on positive-sample losses within each
            environment (the "rate of negative samples" adjustment); 1.0
            disables class re-weighting.
    """

    power: float = 0.5
    positive_weight: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.power <= 1.0:
            raise ValueError("power must be in [0, 1]")
        if self.positive_weight <= 0:
            raise ValueError("positive_weight must be positive")


class UpSamplingTrainer(Trainer):
    """Environment-rebalanced (and optionally class-rebalanced) ERM."""

    name = "Up Sampling"
    config_class = UpSamplingConfig
    config: UpSamplingConfig

    def _begin_fit(self, environments: list[EnvironmentData]) -> None:
        sizes = np.array([env.n_samples for env in environments],
                         dtype=np.float64)
        self._env_weights = sizes**self.config.power
        self._env_weights /= self._env_weights.sum()

    def _step(self, model: LogisticModel, theta: np.ndarray,
              environments: list[EnvironmentData], timer: StepTimer):
        objective = 0.0
        grad = np.zeros_like(theta)
        env_losses: dict[str, float] = {}
        with timer.step("inner_optimization"):
            for weight, env in zip(self._env_weights, environments):
                loss_e, grad_e = self._weighted_loss_and_gradient(
                    model, theta, env
                )
                env_losses[env.name] = loss_e
                objective += weight * loss_e
                grad += weight * grad_e
        with timer.step("backward_propagation"):
            theta = self._optimizer.step(theta, grad)
        extra = (
            {"grad_norm": float(np.linalg.norm(grad))}
            if self._tracer.enabled else {}
        )
        return theta, objective, env_losses, extra

    def _weighted_loss_and_gradient(
        self, model: LogisticModel, theta: np.ndarray, env: EnvironmentData
    ) -> tuple[float, np.ndarray]:
        """Per-environment loss/gradient with optional positive-class weight."""
        if self.config.positive_weight == 1.0:
            return model.loss_and_gradient(theta, env.features, env.labels)
        labels = env.labels
        prob = model.predict_proba(theta, env.features)
        prob = np.clip(prob, 1e-12, 1 - 1e-12)
        sample_weights = np.where(labels == 1.0, self.config.positive_weight, 1.0)
        sample_weights = sample_weights / sample_weights.mean()
        per_sample = -(labels * np.log(prob) + (1 - labels) * np.log(1 - prob))
        loss = float(np.mean(sample_weights * per_sample))
        residual = sample_weights * (prob - labels) / labels.size
        grad = model._rmatvec(env.features, residual)
        if model.l2:
            loss += 0.5 * model.l2 * float(theta @ theta)
            grad = grad + model.l2 * theta
        return loss, grad
