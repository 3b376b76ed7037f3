"""ERM + fine-tuning baseline.

"In order to fit the differences between various environments, the ERM model
is fine-tuned for each province respectively before the evaluation."  We
train a pooled ERM model, then continue training a copy of its parameters on
each environment alone for a few epochs.  Evaluation uses the environment's
own fine-tuned parameters when the environment was seen in training, falling
back to the base parameters otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.erm import ERMTrainer
from repro.obs.tracer import Tracer
from repro.timing import StepTimer
from repro.train.base import BaseTrainConfig, EpochCallback, TrainResult

__all__ = ["FineTuneConfig", "FineTunedTrainResult", "FineTuneTrainer"]


@dataclass(frozen=True)
class FineTuneConfig(BaseTrainConfig):
    """ERM + per-environment fine-tuning hyper-parameters.

    Attributes:
        finetune_epochs: Gradient steps taken per environment after the
            base ERM fit.
        finetune_lr: Step size of the fine-tuning phase (usually smaller
            than the base learning rate).
    """

    finetune_epochs: int = 15
    finetune_lr: float = 0.3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.finetune_epochs < 1:
            raise ValueError("finetune_epochs must be >= 1")
        if self.finetune_lr <= 0:
            raise ValueError("finetune_lr must be positive")


@dataclass(frozen=True)
class FineTunedTrainResult(TrainResult):
    """Train result carrying one parameter vector per seen environment.

    Satisfies the unified :class:`~repro.train.base.TrainResult` surface:
    downstream scoring goes through :meth:`theta_for_environment` /
    ``predict_proba_env`` with no type inspection.
    """

    env_thetas: dict[str, np.ndarray] = None  # type: ignore[assignment]

    @property
    def is_per_environment(self) -> bool:
        """True when at least one environment has fine-tuned parameters."""
        return bool(self.env_thetas)

    def theta_for_environment(self, name: str) -> np.ndarray:
        """Fine-tuned parameters for a seen environment, else the base."""
        if self.env_thetas and name in self.env_thetas:
            return self.env_thetas[name]
        return self.theta


class FineTuneTrainer(ERMTrainer):
    """Pooled ERM followed by per-environment fine-tuning."""

    name = "ERM + fine-tuning"
    config_class = FineTuneConfig
    config: FineTuneConfig

    def fit(
        self,
        environments,
        callback: EpochCallback | None = None,
        timer: StepTimer | None = None,
        tracer: Tracer | None = None,
    ) -> FineTunedTrainResult:
        environments = list(environments)
        base = super().fit(environments, callback=callback, timer=timer,
                           tracer=tracer)
        cfg = self.config
        tracer = self._tracer
        env_thetas: dict[str, np.ndarray] = {}
        with tracer.span("finetune", trainer=self.name):
            for env in environments:
                theta = base.theta.copy()
                for _ in range(cfg.finetune_epochs):
                    grad = base.model.gradient(theta, env.features, env.labels)
                    theta = theta - cfg.finetune_lr * grad
                env_thetas[env.name] = theta
                if tracer.enabled:
                    tracer.event(
                        "finetune_env",
                        trainer=self.name,
                        environment=env.name,
                        final_loss=float(
                            base.model.loss(theta, env.features, env.labels)
                        ),
                    )
        return FineTunedTrainResult(
            trainer_name=self.name,
            theta=base.theta,
            model=base.model,
            history=base.history,
            timer=base.timer,
            env_thetas=env_thetas,
        )
