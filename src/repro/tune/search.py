"""Search-result surface shared by every search entry point.

The production model "has to be updated periodically at a relatively high
frequency", which in practice means an automated retrain-and-select loop.
This module holds the *result* half of that loop's vocabulary — the
unified :class:`TrialResult` / :class:`SearchResult` surface shared by
the grid and ASHA paths of :mod:`repro.tune.asha` — plus the ranking
objectives and :func:`split_environments`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.data.dataset import EnvironmentData
from repro.metrics.fairness import FairnessReport

__all__ = [
    "SUPPORTED_OBJECTIVES",
    "TrialResult",
    "RungSummary",
    "SearchResult",
    "check_objective",
    "split_environments",
]

#: Metric used to rank trials: one of the FairnessReport summary keys, or a
#: weighted blend via `objective="blend"`.
SUPPORTED_OBJECTIVES = ("mKS", "wKS", "mAUC", "wAUC", "blend")

#: Domain-separation tag of the validation-split RNG stream ("spli").
_SPLIT_STREAM_TAG = 0x73706C69


def check_objective(objective: str, blend_weight: float) -> None:
    """Validate a ranking objective; shared by every search entry point.

    Raises:
        ValueError: On an unknown objective or out-of-range blend weight.
    """
    if objective not in SUPPORTED_OBJECTIVES:
        raise ValueError(
            f"objective must be one of {SUPPORTED_OBJECTIVES}, "
            f"got {objective!r}"
        )
    if not 0.0 <= blend_weight <= 1.0:
        raise ValueError("blend_weight must be in [0, 1]")


@dataclass(frozen=True)
class TrialResult:
    """One evaluated configuration's scores — grid point or ASHA trial.

    This is the unified per-trial surface: the grid and ASHA schedulers
    both produce it, and ranking/serialization below never
    care which path a trial came from.

    Attributes:
        params: The configuration evaluated.
        report: Validation fairness report of the fitted head.
        train_seconds: Wall-clock of the fit (non-deterministic; excluded
            from bit-identity comparisons).
        trial_id: Stable identity within one search ("" for results
            built outside a scheduler).
        seed: Per-trial training seed (None outside a scheduler).
        rung: Highest completed rung (grid trials are all rung 0).
        budget: Epoch budget of that rung (None = the config's own).
        encode_seconds: Wall-clock of the trial's inline extractor
            fit + leaf-encode (0.0 for cached-attach and head-only
            trials; non-deterministic, excluded from bit-identity).
        encode_cached: Whether the trial attached a cached encoding
            (None for head-only trials with no extractor half).
    """

    params: Mapping[str, object]
    report: FairnessReport
    train_seconds: float
    trial_id: str = ""
    seed: int | None = None
    rung: int = 0
    budget: int | None = None
    encode_seconds: float = 0.0
    encode_cached: bool | None = None

    def objective_value(self, objective: str, blend_weight: float) -> float:
        """The trial's score under a ranking objective."""
        if objective == "blend":
            return (
                (1 - blend_weight) * self.report.mean_ks
                + blend_weight * self.report.worst_ks
            )
        return self.report.summary()[objective]

    def to_json(self) -> dict:
        """JSON-compatible record (leaderboard / run-log payloads)."""
        return {
            "trial": self.trial_id,
            "params": dict(self.params),
            "seed": self.seed,
            "rung": self.rung,
            "budget": self.budget,
            "train_seconds": self.train_seconds,
            "search_cost": {
                "train_seconds": self.train_seconds,
                "encode_seconds": self.encode_seconds,
                "encode_cached": self.encode_cached,
            },
            "metrics": self.report.summary(),
            "per_environment": {
                name: {"ks": scores.ks, "auc": scores.auc}
                for name, scores in self.report.per_environment.items()
            },
            "worst_ks_environment": self.report.worst_ks_environment,
        }


@dataclass(frozen=True)
class RungSummary:
    """One rung of a successive-halving schedule, after the fact.

    Attributes:
        rung: Rung index (0 = the cheapest budget).
        budget: Epoch budget every trial at this rung trained with
            (None for the degenerate single-rung grid).
        evaluated: Trial ids evaluated at this rung, in creation order.
        promoted: Trial ids promoted to the next rung (empty at the last).
    """

    rung: int
    budget: int | None
    evaluated: tuple[str, ...]
    promoted: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "rung": self.rung,
            "budget": self.budget,
            "evaluated": list(self.evaluated),
            "promoted": list(self.promoted),
        }


@dataclass(frozen=True)
class SearchResult:
    """All trials of one search plus the selected best.

    Shared by the grid and ASHA paths; the grid case is simply the
    degenerate single-rung schedule with an empty promotion history.
    """

    trials: tuple[TrialResult, ...]
    objective: str
    blend_weight: float
    best: TrialResult = field(hash=False, default=None)  # type: ignore[assignment]
    rungs: tuple[RungSummary, ...] = ()
    trainer: str | None = None

    def ranked(self) -> list[TrialResult]:
        """Trials sorted best-first: deepest rung reached, then the
        search objective, then trial id (a deterministic tiebreak)."""
        return sorted(
            self.trials,
            key=lambda t: (
                -t.rung,
                -t.objective_value(self.objective, self.blend_weight),
                t.trial_id,
            ),
        )

    def to_json(self) -> dict:
        """JSON-compatible record: ranked trials plus rung history."""
        ranked = self.ranked()
        return {
            "trainer": self.trainer,
            "objective": self.objective,
            "blend_weight": self.blend_weight,
            "rungs": [r.to_json() for r in self.rungs],
            "trials": [
                {
                    "rank": rank,
                    "objective_value": t.objective_value(
                        self.objective, self.blend_weight
                    ),
                    **t.to_json(),
                }
                for rank, t in enumerate(ranked, start=1)
            ],
        }


def split_environments(
    environments: Sequence[EnvironmentData],
    validation_fraction: float = 0.25,
    seed: int | np.random.SeedSequence = 0,
) -> tuple[list[EnvironmentData], list[EnvironmentData]]:
    """Row-split every environment into (fit, validation) parts.

    Stratifies by environment (each province contributes to both sides) so
    the validation fairness report covers the same provinces as training.

    The shuffle RNG is derived from a tagged ``SeedSequence`` stream
    (``[seed, "spli"]``), matching the experiment runner's per-task
    seeding convention, instead of feeding the raw int to
    ``default_rng`` — a one-time change to which rows land in the
    validation slice for a given seed (see ``docs/tuning.md``).

    Args:
        environments: Per-province data slices.
        validation_fraction: Share of each environment held out.
        seed: Root entropy of the shuffle stream; pass an int (tagged
            internally) or a pre-derived ``SeedSequence``.
    """
    if not 0.0 < validation_fraction < 1.0:
        raise ValueError("validation_fraction must be in (0, 1)")
    if isinstance(seed, np.random.SeedSequence):
        stream = seed
    else:
        stream = np.random.SeedSequence([int(seed), _SPLIT_STREAM_TAG])
    rng = np.random.default_rng(stream)
    fit_parts, valid_parts = [], []
    for env in environments:
        order = rng.permutation(env.n_samples)
        n_valid = max(1, int(round(validation_fraction * env.n_samples)))
        if n_valid >= env.n_samples:
            raise ValueError(
                f"environment {env.name!r} too small to split "
                f"({env.n_samples} rows)"
            )
        valid_rows = order[:n_valid]
        fit_rows = order[n_valid:]
        fit_parts.append(
            EnvironmentData(env.name, env.features[fit_rows],
                            env.labels[fit_rows])
        )
        valid_parts.append(
            EnvironmentData(env.name, env.features[valid_rows],
                            env.labels[valid_rows])
        )
    return fit_parts, valid_parts
