"""Trainer abstraction shared by every learning algorithm in the repo.

All methods in the paper's comparison (ERM, fine-tuning, up-sampling,
GroupDRO, V-REx, meta-IRM, LightMIRM) train the same LR head over the same
per-environment data; they differ only in how the parameter update is
computed.  :meth:`Trainer.fit` owns the one epoch loop: each epoch it draws
the epoch's environments (``loading_data``), calls the method's
:meth:`Trainer._step`, closes the epoch and records it in a
:class:`TrainingHistory`.  A method supplies that update step and, when it
keeps state across epochs, a :meth:`Trainer._begin_fit` hook.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.data.dataset import EnvironmentData
from repro.gbdt.leaf_encoder import LeafDesign
from repro.models.logistic import LogisticModel
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.timing import StepTimer
from repro.train.optimizers import make_optimizer

__all__ = [
    "BaseTrainConfig",
    "TrainingHistory",
    "TrainResult",
    "Trainer",
    "EpochCallback",
    "stack_environments",
]

#: Called after every epoch with (epoch_index, theta); the return value, if
#: not None, is stored in ``history.tracked`` — the Figs 6/8 curve hook.
EpochCallback = Callable[[int, np.ndarray], float | None]


@dataclass(frozen=True)
class BaseTrainConfig:
    """Hyper-parameters common to every trainer.

    Attributes:
        n_epochs: Number of outer iterations (full passes).
        learning_rate: Step size of the (outer) gradient update.
        l2: L2 regularisation on the LR parameters.
        seed: RNG seed (parameter init and any sampling).
        init_scale: Std of the random normal parameter initialisation.
        batch_size: When set, each epoch draws a fresh random batch of this
            many rows per environment instead of using the full environment
            (the paper trains "in a mini-batch manner", footnote 6).
            ``None`` keeps full-batch training.
        optimizer: Outer-loop update rule: "sgd" (the paper's plain step,
            default), "momentum" or "adam".
    """

    n_epochs: int = 150
    learning_rate: float = 2.0
    l2: float = 1e-3
    seed: int = 0
    init_scale: float = 0.01
    batch_size: int | None = None
    optimizer: str = "sgd"

    def __post_init__(self) -> None:
        if self.n_epochs < 1:
            raise ValueError("n_epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 when set")
        if self.optimizer not in ("sgd", "momentum", "adam"):
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}; "
                "choose sgd, momentum or adam"
            )


@dataclass
class TrainingHistory:
    """Per-epoch records captured during training."""

    objective: list[float] = field(default_factory=list)
    env_losses: list[dict[str, float]] = field(default_factory=list)
    tracked: list[float] = field(default_factory=list)

    @property
    def n_epochs(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class TrainResult:
    """Outcome of one training run.

    This is the *unified result surface*: every trainer — including the
    per-environment fine-tuning baseline — returns an instance of this
    class (or a subclass) and downstream code scores through the methods
    below without type inspection.  Subclasses that carry per-environment
    parameters override :attr:`is_per_environment` and
    :meth:`theta_for_environment`, which the extractor's scoring path
    (:meth:`repro.pipeline.extractor.GBDTFeatureExtractor.predict_proba`)
    uses to score each province's rows with its own parameters.
    """

    trainer_name: str
    theta: np.ndarray
    model: LogisticModel
    history: TrainingHistory
    timer: StepTimer

    @property
    def is_per_environment(self) -> bool:
        """Whether scoring depends on the row's environment (default no)."""
        return False

    def theta_for_environment(self, name: str) -> np.ndarray:
        """Parameters used to score rows from a named environment."""
        del name
        return self.theta

    def predict_proba(self, features) -> np.ndarray:
        """Score new rows with the trained parameters."""
        return self.model.predict_proba(self.theta, features)

    def predict_proba_env(self, name: str, features) -> np.ndarray:
        """Score rows known to come from one environment."""
        return self.model.predict_proba(self.theta_for_environment(name),
                                        features)


class Trainer(abc.ABC):
    """Base class: environment-aware trainer of the LR head."""

    #: Registry/display name; subclasses override.
    name: str = "base"
    #: Config dataclass of the method; ``config=None`` builds its default.
    config_class: type[BaseTrainConfig] = BaseTrainConfig

    def __init__(self, config: BaseTrainConfig | None = None):
        self.config = config if config is not None else self.config_class()
        self._tracer: Tracer = NULL_TRACER

    def fit(
        self,
        environments: Sequence[EnvironmentData],
        callback: EpochCallback | None = None,
        timer: StepTimer | None = None,
        tracer: Tracer | None = None,
    ) -> TrainResult:
        """Train on the given environments.

        Args:
            environments: Non-empty list of per-province data slices; all
                must share the feature dimension.
            callback: Optional per-epoch hook (e.g. test-KS tracking).
            timer: Optional step timer; when omitted, one is enabled only
                if a live tracer is attached (so tracing alone yields the
                Table III step spans).
            tracer: Optional run tracer; the whole fit becomes a ``fit``
                span, every epoch an ``epoch`` event, and the timer's
                steps ``step:<name>`` spans.  Disabled by default.

        Returns:
            A :class:`TrainResult` with final parameters and history.
        """
        environments = list(environments)
        if not environments:
            raise ValueError("need at least one environment")
        dims = {env.features.shape[1] for env in environments}
        if len(dims) != 1:
            raise ValueError(f"environments disagree on feature dim: {dims}")
        for env in environments:
            if env.n_samples == 0:
                raise ValueError(f"environment {env.name!r} is empty")
        n_features = dims.pop()
        model = LogisticModel(n_features, l2=self.config.l2)
        theta = model.init_params(seed=self.config.seed,
                                  scale=self.config.init_scale)
        self._tracer = tracer if tracer is not None else NULL_TRACER
        timer = timer or StepTimer(enabled=self._tracer.enabled)
        self._tracer.attach_timer(timer)
        history = TrainingHistory()
        # Dedicated stream for mini-batch draws, decoupled from any
        # algorithm-internal sampling so batch_size=None reproduces the
        # full-batch trajectories exactly.
        self._batch_rng = np.random.default_rng(
            np.random.SeedSequence([self.config.seed, 0x6B617463])
        )
        self._optimizer = make_optimizer(
            self.config.optimizer, self.config.learning_rate
        )

        with self._tracer.span(
            "fit",
            trainer=self.name,
            n_environments=len(environments),
            n_epochs=self.config.n_epochs,
            seed=self.config.seed,
        ):
            with timer.step("loading_data"):
                self._begin_fit(environments)
            for epoch in range(self.config.n_epochs):
                timer.begin_epoch()
                with timer.step("loading_data"):
                    epoch_envs = self._epoch_environments(environments)
                theta, objective, env_losses, extra = self._step(
                    model, theta, epoch_envs, timer
                )
                timer.end_epoch()
                self._record(history, epoch, theta, objective, env_losses,
                             callback, extra)
        return TrainResult(
            trainer_name=self.name,
            theta=theta,
            model=model,
            history=history,
            timer=timer,
        )

    def _begin_fit(self, environments: list[EnvironmentData]) -> None:
        """Set up the method's per-fit state (default: none)."""

    @abc.abstractmethod
    def _step(
        self,
        model: LogisticModel,
        theta: np.ndarray,
        environments: list[EnvironmentData],
        timer: StepTimer,
    ) -> tuple[np.ndarray, float, dict[str, float], dict]:
        """One epoch's parameter update on this epoch's environments.

        Returns:
            ``(theta, objective, env_losses, extra)``: the updated
            parameters; the objective and each environment's loss, both
            at the parameters the step started from; and the trace-only
            fields of the epoch event, computed only when
            ``self._tracer.enabled`` (else ``{}``).
        """

    def _epoch_environments(
        self, environments: list[EnvironmentData]
    ) -> list[EnvironmentData]:
        """Per-epoch environment views: mini-batches when configured.

        With ``batch_size`` unset this returns the input list unchanged
        (zero overhead); otherwise each environment contributes a fresh
        uniform sample of at most ``batch_size`` rows.
        """
        batch_size = self.config.batch_size
        if batch_size is None:
            return environments
        views = []
        for env in environments:
            if env.n_samples <= batch_size:
                views.append(env)
                continue
            rows = self._batch_rng.choice(
                env.n_samples, size=batch_size, replace=False
            )
            views.append(
                EnvironmentData(env.name, env.features[rows], env.labels[rows])
            )
        return views

    def _record(
        self,
        history: TrainingHistory,
        epoch: int,
        theta: np.ndarray,
        objective: float,
        env_losses: dict[str, float],
        callback: EpochCallback | None,
        extra: dict,
    ) -> None:
        """Append one epoch's records, fire the callback, trace the epoch.

        With a live tracer, one ``epoch`` event is emitted carrying the
        objective, per-environment losses and the step's trace-only
        ``extra`` fields (IRM penalty, gradient norm, MRQ state, sampled
        environments, ...).
        """
        history.objective.append(objective)
        history.env_losses.append(env_losses)
        tracked = None
        if callback is not None:
            tracked = callback(epoch, theta)
            if tracked is not None:
                history.tracked.append(tracked)
        if self._tracer.enabled:
            fields: dict = {
                "trainer": self.name,
                "epoch": epoch,
                "objective": float(objective),
                "env_losses": {k: float(v) for k, v in env_losses.items()},
            }
            if tracked is not None:
                fields["tracked"] = float(tracked)
            fields.update(extra)
            self._tracer.event("epoch", **fields)

    @staticmethod
    def _environment_losses(
        model: LogisticModel,
        theta: np.ndarray,
        environments: list[EnvironmentData],
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Each environment's loss and gradient at ``theta``, in order."""
        losses = np.zeros(len(environments))
        grads = []
        for e, env in enumerate(environments):
            losses[e], grad = model.loss_and_gradient(
                theta, env.features, env.labels
            )
            grads.append(grad)
        return losses, grads

    @staticmethod
    def _weighted_sum(weights, grads: list[np.ndarray]) -> np.ndarray:
        """``Σ_e weights[e] · grads[e]``, added in environment order."""
        total = np.zeros_like(grads[0])
        for weight, grad in zip(weights, grads):
            total += weight * grad
        return total


def stack_environments(
    environments: Sequence[EnvironmentData],
) -> tuple[np.ndarray | LeafDesign, np.ndarray]:
    """Concatenate environments into one pooled (features, labels) pair.

    Features are all :class:`LeafDesign` blocks or all dense arrays.
    """
    feature_blocks = [env.features for env in environments]
    labels = np.concatenate([env.labels for env in environments])
    if isinstance(feature_blocks[0], LeafDesign):
        return LeafDesign.vstack(feature_blocks), labels
    return np.vstack(feature_blocks), labels
