"""Table II + Figures 6 and 8 — LightMIRM vs meta-IRM sampling variants.

The paper's central efficiency/quality trade-off study: complete meta-IRM,
meta-IRM with sampled meta-loss environments (S = 20, 10, 5) and LightMIRM
(L = 5), compared on the four headline metrics (Table II) and on the
evolution of the test KS during training (Figs 6 and 8).

Run with the extended 26-province registry so the S values match the paper;
with the default 12-province registry the harness adapts S to {8, 4, 2}.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import LightMIRMConfig, MetaIRMConfig
from repro.core.lightmirm import LightMIRMTrainer
from repro.core.meta_irm import MetaIRMTrainer
from repro.eval.reports import format_table
from repro.eval.tracking import KSTrackingCallback
from repro.experiments.runner import ExperimentContext, MethodScores
from repro.models.logistic import LogisticModel
from repro.train.base import Trainer
from repro.train.registry import TrainerSpec

__all__ = [
    "sampling_levels",
    "run_table2",
    "run_training_curves",
    "format_table2",
    "format_curves",
]

#: Epoch budget shared by every variant so the curves are comparable.
CURVE_EPOCHS = 120


def sampling_levels(n_environments: int) -> tuple[int, ...]:
    """The meta-IRM sampling sizes S to compare.

    Paper values {20, 10, 5} need M > 20 environments; for smaller M we
    keep the same geometric coverage of (M - 1): roughly 2/3, 1/3 and 1/6.
    """
    if n_environments > 21:
        return (20, 10, 5)
    others = n_environments - 1
    levels = sorted(
        {max(1, round(others * f)) for f in (2 / 3, 1 / 3, 1 / 6)}, reverse=True
    )
    return tuple(levels)


def _variant_specs(n_environments: int) -> list[tuple[str, TrainerSpec]]:
    """All Table II rows as declarative (name, spec) pairs."""
    specs: list[tuple[str, TrainerSpec]] = [
        ("meta-IRM", TrainerSpec.of("meta-IRM")),
    ]
    for s in sampling_levels(n_environments):
        specs.append(
            (f"meta-IRM({s})", TrainerSpec.of("meta-IRM", n_sampled_envs=s))
        )
    specs.append(("LightMIRM", TrainerSpec.of("LightMIRM")))
    return specs


def run_table2(context: ExperimentContext) -> list[MethodScores]:
    """Seed-averaged Table II rows."""
    return context.score_methods(
        _variant_specs(len(context.train_environments))
    )


@dataclass(frozen=True)
class TrainingCurve:
    """Test-KS evolution of one variant (a Fig 6 / Fig 8 series)."""

    method: str
    epochs: list[int]
    test_ks: list[float]

    def final(self) -> float:
        return self.test_ks[-1]

    def best(self) -> float:
        return max(self.test_ks)


def run_training_curves(
    context: ExperimentContext,
    every: int = 10,
    n_epochs: int = CURVE_EPOCHS,
) -> list[TrainingCurve]:
    """Track test KS per epoch for every variant (Fig 6 / Fig 8 series).

    All variants run the same number of epochs here (unlike Table II, which
    uses each method's tuned budget) so the curves share an x-axis.
    """
    n_envs = len(context.train_environments)
    seed = context.settings.trainer_seeds[0]
    curves = []
    variants: dict[str, Trainer] = {
        "meta-IRM": MetaIRMTrainer(MetaIRMConfig(seed=seed, n_epochs=n_epochs)),
    }
    for s in sampling_levels(n_envs):
        variants[f"meta-IRM({s})"] = MetaIRMTrainer(
            MetaIRMConfig(seed=seed, n_sampled_envs=s, n_epochs=n_epochs)
        )
    variants["LightMIRM"] = LightMIRMTrainer(
        LightMIRMConfig(seed=seed, n_epochs=n_epochs)
    )
    n_features = context.train_environments[0].features.shape[1]
    for name, trainer in variants.items():
        callback = KSTrackingCallback(
            LogisticModel(n_features, l2=trainer.config.l2),
            context.test_environments,
            statistic="mean",
            every=every,
        )
        context.fit_trainer(trainer, callback=callback)
        epochs = [e for e, _ in callback.curve]
        values = [v for _, v in callback.curve]
        curves.append(TrainingCurve(method=name, epochs=epochs, test_ks=values))
    return curves


def format_table2(scores: list[MethodScores]) -> str:
    """Render the Table II comparison."""
    rows = [s.as_row() for s in scores]
    return format_table(
        rows,
        columns=("method", "mKS", "wKS", "mAUC", "wAUC"),
        title="Table II: meta-IRM sampling variants vs LightMIRM",
    )


def format_curves(curves: list[TrainingCurve]) -> str:
    """Render the Fig 6 / Fig 8 curves as aligned text series."""
    lines = ["Fig 6/8: test mean-KS during training"]
    for curve in curves:
        points = "  ".join(
            f"{e}:{v:.4f}" for e, v in zip(curve.epochs, curve.test_ks)
        )
        lines.append(f"  {curve.method:16s} {points}")
        lines.append(
            f"  {'':16s} best={curve.best():.4f} final={curve.final():.4f}"
        )
    return "\n".join(lines)
