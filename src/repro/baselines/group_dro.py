"""GroupDRO baseline (Sagawa et al., 2019).

Distributionally robust optimisation over groups: maintain a probability
vector ``q`` over environments, updated multiplicatively toward the
worst-loss environments (exponentiated gradient), and descend the
``q``-weighted loss.  This directly optimises the worst-group risk the
paper's minimax-fairness metrics measure — the strongest "fairness-first"
baseline in Table I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import EnvironmentData
from repro.models.logistic import LogisticModel
from repro.timing import StepTimer
from repro.train.base import BaseTrainConfig, Trainer

__all__ = ["GroupDROConfig", "GroupDROTrainer"]


@dataclass(frozen=True)
class GroupDROConfig(BaseTrainConfig):
    """GroupDRO hyper-parameters.

    Attributes:
        group_lr: Step size η of the exponentiated-gradient update on the
            group weights ``q_e ∝ q_e · exp(η · loss_e)``.
    """

    group_lr: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.group_lr <= 0:
            raise ValueError("group_lr must be positive")


class GroupDROTrainer(Trainer):
    """Worst-group risk minimisation via exponentiated group weights."""

    name = "Group DRO"
    config_class = GroupDROConfig
    config: GroupDROConfig
    #: Group weights q, index-aligned with environments; updated every
    #: epoch, so after fit() they are the final ones.
    group_weights_: np.ndarray | None = None

    def _begin_fit(self, environments: list[EnvironmentData]) -> None:
        self.group_weights_ = np.full(len(environments),
                                      1.0 / len(environments))

    def _step(self, model: LogisticModel, theta: np.ndarray,
              environments: list[EnvironmentData], timer: StepTimer):
        with timer.step("inner_optimization"):
            losses, grads = self._environment_losses(model, theta,
                                                     environments)
        with timer.step("backward_propagation"):
            # Exponentiated-gradient ascent on q (shift for stability).
            q = self.group_weights_ * np.exp(
                self.config.group_lr * (losses - losses.max())
            )
            q = q / q.sum()
            grad = self._weighted_sum(q, grads)
            theta = self._optimizer.step(theta, grad)
        self.group_weights_ = q
        extra = {}
        if self._tracer.enabled:
            extra = {
                "grad_norm": float(np.linalg.norm(grad)),
                "group_weights": {
                    env.name: float(q[e])
                    for e, env in enumerate(environments)
                },
                "worst_group_loss": float(losses.max()),
            }
        env_losses = dict(zip([env.name for env in environments],
                              losses.tolist()))
        return theta, float(q @ losses), env_losses, extra
