"""ERM baseline: pooled empirical risk minimisation.

The standard industry approach the paper critiques: minimise the average
loss over the aggregated data, ignoring environment structure entirely.
Implemented as full-batch gradient descent on the pooled BCE so that the
only difference from the IRM trainers is the objective, not the optimiser.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import EnvironmentData
from repro.models.logistic import LogisticModel
from repro.timing import StepTimer
from repro.train.base import Trainer, stack_environments

__all__ = ["ERMTrainer"]


class ERMTrainer(Trainer):
    """Pooled-loss gradient descent (the paper's ERM baseline)."""

    name = "ERM"

    def _begin_fit(self, environments: list[EnvironmentData]) -> None:
        # Full-batch epochs all see the same pooled data: stack it once.
        self._pooled = (stack_environments(environments)
                        if self.config.batch_size is None else None)

    def _step(self, model: LogisticModel, theta: np.ndarray,
              environments: list[EnvironmentData], timer: StepTimer):
        features, labels = self._pooled or stack_environments(environments)
        env_losses = {
            env.name: model.loss(theta, env.features, env.labels)
            for env in environments
        }
        with timer.step("inner_optimization"):
            loss, grad = model.loss_and_gradient(theta, features, labels)
        with timer.step("backward_propagation"):
            theta = self._optimizer.step(theta, grad)
        extra = (
            {"grad_norm": float(np.linalg.norm(grad))}
            if self._tracer.enabled else {}
        )
        return theta, loss, env_losses, extra
