"""Search-result surface shared by every search entry point.

The production model "has to be updated periodically at a relatively high
frequency", which in practice means an automated retrain-and-select loop.
This module holds the *result* half of that loop's vocabulary — the
unified :class:`TrialResult` / :class:`SearchResult` surface shared by
the grid and ASHA paths of :mod:`repro.tune.asha` — plus the ranking
objectives and :func:`split_environments`.

A traced search writes every :class:`TrialResult` to the obs run log as
a ``tune_trial`` event.  Trial sampling is a pure function of (space,
search seed), so that log is the search's durable state:
:func:`load_trial_records` reads a (possibly torn) log back, and the
scheduler replays each record that still describes the same work
instead of re-training it.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.data.dataset import EnvironmentData
from repro.metrics.fairness import EnvironmentScores, FairnessReport
from repro.obs.runlog import TUNE_TRIAL_EVENT

__all__ = [
    "SUPPORTED_OBJECTIVES",
    "TrialResult",
    "RungSummary",
    "SearchResult",
    "check_objective",
    "load_trial_records",
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
    """One evaluated (trial, rung): the search's only per-trial record.

    The scheduler builds one per evaluation and emits it as a
    ``tune_trial`` run-log event (:meth:`to_fields`); a resumed search
    reads those events back (:func:`load_trial_records`) and replays the
    matching ones as they are.  :meth:`to_json` is its leaderboard entry.

    Attributes:
        trainer: Canonical name of the trainer searched.
        trial_id: Trial identity within the search.
        rung: Rung the evaluation ran at (grid trials are all rung 0);
            a search result keeps each trial's deepest one.
        budget: Epoch budget of that rung (None = the config's own).
        params: The configuration evaluated.
        seed: Per-trial training seed.
        report: Validation fairness report of the fitted head.
        data: What the scores were computed on: the
            :func:`~repro.tune.extractor_cache.environments_fingerprint`
            of the environments the search received and its
            ``validation_fraction``.  None on records read from logs
            written before it was recorded; those never replay.
        train_seconds: Wall-clock of the fit (non-deterministic; excluded
            from bit-identity comparisons).
        encode_seconds: Wall-clock of the trial's inline extractor
            fit + leaf-encode (0.0 for cached-attach and head-only
            trials; non-deterministic, excluded from bit-identity).
        encode_cached: Whether the trial attached a cached encoding
            (None for head-only trials with no extractor half).
    """

    trainer: str
    trial_id: str
    rung: int
    budget: int | None
    params: Mapping[str, object]
    seed: int
    report: FairnessReport
    data: Mapping[str, object] | None
    train_seconds: float
    encode_seconds: float
    encode_cached: bool | None

    def objective_value(self, objective: str, blend_weight: float) -> float:
        """The trial's score under a ranking objective."""
        if objective == "blend":
            return (
                (1 - blend_weight) * self.report.mean_ks
                + blend_weight * self.report.worst_ks
            )
        return self.report.summary()[objective]

    def rank_key(self, objective: str, blend_weight: float) -> tuple:
        """Sort key of every ranking, best first: deepest rung reached,
        then the objective, then (trainer, trial id) as a deterministic
        tiebreak."""
        return (-self.rung, -self.objective_value(objective, blend_weight),
                self.trainer, self.trial_id)

    def to_json(self) -> dict:
        """JSON-compatible leaderboard entry."""
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

    def to_fields(self) -> dict:
        """The ``tune_trial`` event payload; floats round-trip exactly
        through the run log's shortest-repr JSON."""
        return {
            "trainer": self.trainer,
            "trial": self.trial_id,
            "rung": self.rung,
            "budget": self.budget,
            "params": dict(self.params),
            "seed": self.seed,
            "data": self.data,
            "train_seconds": self.train_seconds,
            "encode_seconds": self.encode_seconds,
            "encode_cached": self.encode_cached,
            "per_environment": {
                name: {
                    "ks": scores.ks,
                    "auc": scores.auc,
                    "n_samples": scores.n_samples,
                    "n_positive": scores.n_positive,
                }
                for name, scores in self.report.per_environment.items()
            },
            "skipped": list(self.report.skipped),
        }

    @classmethod
    def from_fields(cls, fields: dict) -> "TrialResult":
        """Inverse of :meth:`to_fields` (run-log replay)."""
        return cls(
            trainer=fields["trainer"],
            trial_id=fields["trial"],
            rung=int(fields["rung"]),
            budget=(None if fields.get("budget") is None
                    else int(fields["budget"])),
            params=dict(fields["params"]),
            seed=int(fields["seed"]),
            report=FairnessReport(
                per_environment={
                    name: EnvironmentScores(
                        environment=name,
                        ks=float(entry["ks"]),
                        auc=float(entry["auc"]),
                        n_samples=int(entry["n_samples"]),
                        n_positive=int(entry["n_positive"]),
                    )
                    for name, entry in fields["per_environment"].items()
                },
                skipped=tuple(fields.get("skipped", ())),
            ),
            data=fields.get("data"),
            train_seconds=float(fields["train_seconds"]),
            # .get defaults keep pre-joint-search logs replayable.
            encode_seconds=float(fields.get("encode_seconds", 0.0)),
            encode_cached=fields.get("encode_cached"),
        )


def load_trial_records(
    path: str | pathlib.Path,
) -> dict[tuple[str, str, int], TrialResult]:
    """Read a run log's ``tune_trial`` events back into trial results.

    Deliberately tolerant where :class:`~repro.obs.runlog.RunLogReader`
    is strict: an interrupted search can leave a torn final line, and
    resume should salvage every complete record before it.  Malformed
    lines and non-trial records are skipped; on duplicate keys the last
    complete record wins.  Keys include the trainer because one log can
    hold several trainers' searches whose local trial ids collide.

    Args:
        path: A JSONL run log written by a traced search.

    Returns:
        ``(trainer, trial_id, rung) -> TrialResult`` for every
        recoverable event.
    """
    records: dict[tuple[str, str, int], TrialResult] = {}
    with pathlib.Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            try:
                decoded = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail of an interrupted run, or a blank line
            if (
                not isinstance(decoded, dict)
                or decoded.get("kind") != "event"
                or decoded.get("name") != TUNE_TRIAL_EVENT
            ):
                continue
            try:
                record = TrialResult.from_fields(decoded["fields"])
            except (KeyError, TypeError, ValueError):
                continue
            records[(record.trainer, record.trial_id, record.rung)] = record
    return records


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
    """All trials of one search, each at its deepest rung.

    Shared by the grid and ASHA paths; the grid case is simply the
    degenerate single-rung schedule with an empty promotion history.
    ``replayed`` counts the rung evaluations taken from a resume log
    instead of retrained (of ``sum(len(r.evaluated) for r in rungs)``).
    """

    trials: tuple[TrialResult, ...]
    objective: str
    blend_weight: float
    rungs: tuple[RungSummary, ...]
    trainer: str
    replayed: int = 0

    def ranked(self) -> list[TrialResult]:
        """Trials sorted best-first (:meth:`TrialResult.rank_key`)."""
        return sorted(
            self.trials,
            key=lambda t: t.rank_key(self.objective, self.blend_weight),
        )

    @property
    def best(self) -> TrialResult:
        """The top-ranked trial."""
        return self.ranked()[0]

    def to_json(self) -> dict:
        """JSON-compatible record: ranked trials plus rung history."""
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
                for rank, t in enumerate(self.ranked(), start=1)
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
