"""Table III + Figure 7 — time cost of the operation steps.

Profiles the five operation steps of meta-IRM, meta-IRM(5) and LightMIRM
(loading data, transforming the format, inner optimization, calculating the
meta-losses, backward propagation) and the whole-epoch time.  The paper's
headline ratios on its ~30-environment workload: the meta-loss step of
LightMIRM is ~30x faster than complete meta-IRM and a whole epoch ~12x
faster; the complexity analysis (Section III-F) predicts the ratio grows
like M/2.
"""

from __future__ import annotations

from repro.core.config import LightMIRMConfig, MetaIRMConfig
from repro.core.lightmirm import LightMIRMTrainer
from repro.core.meta_irm import MetaIRMTrainer
from repro.experiments.runner import ExperimentContext
from repro.obs.report import TimingTable, format_timing_table
from repro.timing import StepTimer
from repro.train.base import Trainer

__all__ = ["run_table3", "format_table3", "step_proportions"]

#: Epochs to profile; enough for stable per-step means.
PROFILE_EPOCHS = 10


def _profiled_trainers(seed: int, n_sampled: int) -> dict[str, Trainer]:
    return {
        "meta-IRM": MetaIRMTrainer(
            MetaIRMConfig(seed=seed, n_epochs=PROFILE_EPOCHS)
        ),
        f"meta-IRM({n_sampled})": MetaIRMTrainer(
            MetaIRMConfig(seed=seed, n_epochs=PROFILE_EPOCHS,
                          n_sampled_envs=n_sampled)
        ),
        "LightMIRM": LightMIRMTrainer(
            LightMIRMConfig(seed=seed, n_epochs=PROFILE_EPOCHS)
        ),
    }


def run_table3(
    context: ExperimentContext, n_sampled: int = 5
) -> list[TimingTable]:
    """Profile the three Table III methods on the shared context.

    Per-epoch step times are averaged over ``PROFILE_EPOCHS`` epochs.  The
    meta-loss step dominates complete meta-IRM and is where LightMIRM's
    speedup comes from.
    """
    seed = context.settings.trainer_seeds[0]
    timings = []
    for name, trainer in _profiled_trainers(seed, n_sampled).items():
        timer = StepTimer(enabled=True)
        context.fit_trainer(trainer, timer=timer)
        timings.append(TimingTable.from_timer(name, timer, PROFILE_EPOCHS))
    return timings


def step_proportions(timing: TimingTable) -> dict[str, float]:
    """Fraction of the epoch each step takes (the Fig 7 pie data)."""
    total = sum(timing.mean_step_seconds.values())
    if total == 0:
        return {name: 0.0 for name in timing.mean_step_seconds}
    return {
        name: seconds / total
        for name, seconds in timing.mean_step_seconds.items()
    }


def format_table3(timings: list[TimingTable]) -> str:
    """Render Table III (per-step seconds), the speedups and Fig 7.

    Expects columns labelled ``meta-IRM`` and ``LightMIRM``.
    """
    table = format_timing_table(timings)
    complete = next(t for t in timings if t.label == "meta-IRM")
    light = next(t for t in timings if t.label == "LightMIRM")
    meta_ratio = _ratio(
        complete.step("calculating_meta_losses"),
        light.step("calculating_meta_losses"),
    )
    epoch_ratio = _ratio(complete.mean_epoch_seconds, light.mean_epoch_seconds)
    lines = [table, ""]
    lines.append(
        f"meta-loss step speedup (meta-IRM / LightMIRM): {meta_ratio:.1f}x"
    )
    lines.append(f"whole-epoch speedup: {epoch_ratio:.1f}x")
    lines.append("")
    lines.append("Fig 7: proportion of each step in the total time")
    for t in timings:
        proportions = step_proportions(t)
        rendered = "  ".join(
            f"{name}={fraction:.1%}" for name, fraction in proportions.items()
        )
        lines.append(f"  {t.label:16s} {rendered}")
    return "\n".join(lines)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else float("inf")
