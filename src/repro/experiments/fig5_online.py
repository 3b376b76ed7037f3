"""Figure 5 + the online comparison (Section IV-C1).

Replays the 2020 application stream through a LightMIRM-trained companion
model: sweeping the refusal threshold yields the false-positive-rate and
bad-debt-rate curves of Fig 5, and the operating point at threshold 0.5
gives the headline bad-debt reduction (paper: 2.09% -> 0.73%, a 63% cut by
refusing only a small share of loans).
"""

from __future__ import annotations

import numpy as np

from repro.eval.online import OnlineReplayResult, replay_online_test
from repro.eval.reports import format_table
from repro.experiments.runner import ExperimentContext
from repro.train.registry import make_trainer

__all__ = ["run_fig5", "format_fig5"]


def run_fig5(
    context: ExperimentContext,
    method: str = "LightMIRM",
    operating_threshold: float = 0.5,
) -> OnlineReplayResult:
    """Train the companion model and replay the 2020 stream through it."""
    result = context.fit_trainer(
        make_trainer(method, seed=context.settings.trainer_seeds[0])
    )
    test = context.split.test
    return replay_online_test(
        test.labels, context.extractor.predict_proba(test, result),
        operating_threshold=operating_threshold,
    )


def format_fig5(replay: OnlineReplayResult) -> str:
    """Render the curve samples plus the headline operating point."""
    curves = replay.curves
    # Sample a readable subset of the sweep for the text rendering.
    idx = np.linspace(0, curves["thresholds"].size - 1, 11).astype(int)
    rows = [
        {
            "threshold": float(curves["thresholds"][i]),
            "false_positive_rate": float(curves["false_positive_rate"][i]),
            "bad_debt_rate": float(curves["bad_debt_rate"][i]),
            "refusal_rate": float(curves["refusal_rate"][i]),
        }
        for i in idx
    ]
    table = format_table(
        rows,
        columns=("threshold", "false_positive_rate", "bad_debt_rate",
                 "refusal_rate"),
        title="Fig 5: online replay - FPR and bad-debt rate vs threshold",
    )
    return (
        f"{table}\n\n"
        f"baseline bad-debt rate : {replay.baseline_bad_debt_rate:.4f}\n"
        f"companion bad-debt rate: {replay.companion_bad_debt_rate:.4f} "
        f"(threshold {replay.operating_threshold})\n"
        f"reduction              : {replay.reduction_fraction:.1%} "
        f"while refusing {replay.refusal_at_threshold:.1%} of applications"
    )
