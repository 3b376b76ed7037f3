"""Table VI — performance comparison under a random (i.i.d.) split.

Splitting randomly removes the temporal drift, isolating pure cross-
province fairness.  Paper shapes to reproduce: complete meta-IRM attains
the best mean metrics; LightMIRM attains the best worst-province KS while
staying within a whisker on the means — i.e. the replay approximation costs
essentially nothing when there is no distribution shift, and still buys
fairness.
"""

from __future__ import annotations

from repro.eval.reports import format_table, highlight_best
from repro.experiments.runner import ExperimentContext, MethodScores
from repro.experiments.table2_sampling import sampling_levels
from repro.train.registry import TrainerSpec

__all__ = ["run_table6", "format_table6"]

#: Baseline methods in the paper's Table VI row order (before the meta rows).
BASELINES = ("Up Sampling", "Group DRO", "V-REx")


def run_table6(context: ExperimentContext) -> list[MethodScores]:
    """Seed-averaged Table VI rows on an i.i.d. split context.

    Args:
        context: Must be built on an i.i.d.-split platform
            (``ExperimentSettings(platform="iid")``).
    """
    if context.platform.split != "iid":
        raise ValueError("Table VI requires an i.i.d.-split context")
    small_s = sampling_levels(len(context.train_environments))[-1]
    specs = [(name, TrainerSpec.of(name)) for name in BASELINES]
    specs.append(
        (
            f"meta-IRM ({small_s})",
            TrainerSpec.of("meta-IRM", n_sampled_envs=small_s),
        )
    )
    specs.append(("meta-IRM(complete)", TrainerSpec.of("meta-IRM")))
    specs.append(("LightMIRM", TrainerSpec.of("LightMIRM")))
    return context.score_methods(specs)


def format_table6(scores: list[MethodScores]) -> str:
    """Render the i.i.d. comparison."""
    rows = [s.as_row() for s in scores]
    table = format_table(
        rows,
        columns=("method", "mKS", "wKS", "mAUC", "wAUC"),
        title="Table VI: performance with random splitting (i.i.d.)",
    )
    return (
        f"{table}\n\n"
        f"best mKS: {highlight_best(rows, 'mKS')}\n"
        f"best wKS: {highlight_best(rows, 'wKS')}"
    )
