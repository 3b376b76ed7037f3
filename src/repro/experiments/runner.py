"""Shared infrastructure for the per-table/figure experiment modules.

Every experiment needs the same scaffolding: generate the synthetic platform
data, make the temporal (or i.i.d.) split, fit the shared GBDT feature
extractor once, and train/evaluate LR heads against the encoded
environments.  :class:`ExperimentContext` caches those stages so a benchmark
that regenerates several paper artefacts does the expensive work once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from repro.data.dataset import EnvironmentData, LoanDataset
from repro.data.generator import GeneratorConfig, LoanDataGenerator
from repro.data.splits import TrainTestSplit, iid_split, temporal_split
from repro.metrics.fairness import FairnessReport, evaluate_environments
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.engine import ParallelEngine, spawn_task_seeds
from repro.parallel.shared import pack_train_test
from repro.pipeline.extractor import GBDTFeatureExtractor
from repro.timing import StepTimer
from repro.train.base import EpochCallback, Trainer, TrainResult
from repro.train.registry import TrainerSpec

__all__ = [
    "ExperimentSettings",
    "ExperimentContext",
    "MethodScores",
    "evaluate_result_on",
]

#: A factory mapping a trainer seed to a fresh Trainer instance.
TrainerFactory = Callable[[int], Trainer]


def evaluate_result_on(
    result: TrainResult, environments: Sequence[EnvironmentData]
) -> FairnessReport:
    """Per-province fairness report of a trained head on given environments.

    Module-level so parallel workers can reuse the exact evaluation code
    the serial path runs — bit-identical scores are an invariant the
    equivalence tests pin down.
    """
    environments = list(environments)
    labels = {e.name: e.labels for e in environments}
    scores = {
        e.name: result.predict_proba_env(e.name, e.features)
        for e in environments
    }
    return evaluate_environments(labels, scores)


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by all experiments.

    Attributes:
        n_samples: Synthetic platform size.  The 40k default keeps the whole
            benchmark suite in minutes while preserving every qualitative
            shape; raise toward ``GeneratorConfig.paper_scale()`` to match
            the paper's data volume.
        data_seed: Seed of the synthetic platform.
        trainer_seeds: Training is repeated for each seed and metrics are
            averaged, absorbing sampling noise in the stochastic trainers.
        split: "temporal" (paper's main protocol) or "iid" (Table VI).
        generator_overrides: Extra :class:`GeneratorConfig` fields, e.g.
            ``{"registry": extended_registry()}`` for Table II/III.
        n_jobs: Worker processes for the trainer×seed fan-out.  ``1``
            (default) runs serially; any value produces bit-identical
            :class:`MethodScores`, because seeds attach to tasks rather
            than workers.
    """

    n_samples: int = 40_000
    data_seed: int = 7
    trainer_seeds: tuple[int, ...] = (0, 1, 2)
    split: str = "temporal"
    generator_overrides: dict = field(default_factory=dict)
    n_jobs: int = 1

    def __post_init__(self) -> None:
        if self.split not in ("temporal", "iid"):
            raise ValueError("split must be 'temporal' or 'iid'")
        if not self.trainer_seeds:
            raise ValueError("need at least one trainer seed")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")

    def derived_trainer_seeds(self) -> tuple[int, ...]:
        """Actual per-repeat RNG seeds, one ``SeedSequence`` child each.

        ``trainer_seeds`` are treated as entropy labels, not raw RNG
        seeds: feeding small consecutive integers (0, 1, 2) straight
        into generators yields correlated streams, and hand-offsetting
        them was ad hoc.  Spawning children of a root seeded by
        ``(data_seed, *trainer_seeds)`` gives pairwise-independent
        streams that depend only on the settings — so serial and
        parallel runs, whatever the scheduling, train from identical
        seeds.
        """
        return tuple(
            spawn_task_seeds(
                (self.data_seed, *self.trainer_seeds),
                len(self.trainer_seeds),
            )
        )


@dataclass(frozen=True)
class MethodScores:
    """Seed-averaged evaluation of one method."""

    method: str
    mean_ks: float
    worst_ks: float
    mean_auc: float
    worst_auc: float
    worst_environment: str

    def as_row(self) -> dict[str, object]:
        """Row dict in the papers' column naming."""
        return {
            "method": self.method,
            "mKS": self.mean_ks,
            "wKS": self.worst_ks,
            "mAUC": self.mean_auc,
            "wAUC": self.worst_auc,
        }


class ExperimentContext:
    """Caches data generation, splitting and GBDT encoding for experiments.

    Args:
        settings: Experiment knobs (defaults reproduce the paper setup).
        tracer: Optional run tracer; every :meth:`fit_trainer` call is
            traced, so an experiment sweep leaves one log with a ``fit``
            span per trained head.
    """

    def __init__(
        self,
        settings: ExperimentSettings | None = None,
        tracer: Tracer | None = None,
    ):
        self.settings = settings or ExperimentSettings()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    @cached_property
    def generator_config(self) -> GeneratorConfig:
        return replace(
            GeneratorConfig(
                n_samples=self.settings.n_samples, seed=self.settings.data_seed
            ),
            **self.settings.generator_overrides,
        )

    @cached_property
    def dataset(self) -> LoanDataset:
        return LoanDataGenerator(self.generator_config).generate()

    @cached_property
    def split(self) -> TrainTestSplit:
        if self.settings.split == "temporal":
            return temporal_split(self.dataset)
        return iid_split(self.dataset, seed=self.settings.data_seed)

    @cached_property
    def extractor(self) -> GBDTFeatureExtractor:
        return GBDTFeatureExtractor().fit(self.split.train)

    @cached_property
    def train_environments(self) -> list[EnvironmentData]:
        return self.extractor.encode_environments(self.split.train)

    @cached_property
    def test_environments(self) -> list[EnvironmentData]:
        return self.extractor.encode_environments(self.split.test)

    # ------------------------------------------------------------- training

    def fit_trainer(
        self,
        trainer: Trainer,
        callback: EpochCallback | None = None,
        timer: StepTimer | None = None,
    ) -> TrainResult:
        """Train one LR head on the encoded training environments."""
        return trainer.fit(self.train_environments, callback=callback,
                           timer=timer, tracer=self.tracer)

    def evaluate_result(
        self,
        result: TrainResult,
        test_environments: Sequence[EnvironmentData] | None = None,
    ) -> FairnessReport:
        """Per-province report of a trained head on the test environments."""
        return evaluate_result_on(
            result, test_environments or self.test_environments
        )

    @staticmethod
    def _aggregate(method: str,
                   reports: Sequence[FairnessReport]) -> MethodScores:
        """Seed-average the four headline metrics of one method."""
        worst_envs = [r.worst_ks_environment for r in reports]
        modal_worst = max(set(worst_envs), key=worst_envs.count)
        return MethodScores(
            method=method,
            mean_ks=float(np.mean([r.mean_ks for r in reports])),
            worst_ks=float(np.mean([r.worst_ks for r in reports])),
            mean_auc=float(np.mean([r.mean_auc for r in reports])),
            worst_auc=float(np.mean([r.worst_auc for r in reports])),
            worst_environment=modal_worst,
        )

    def score_method(
        self,
        method: str,
        factory: TrainerFactory | TrainerSpec,
        n_jobs: int | None = None,
    ) -> MethodScores:
        """Train over all trainer seeds and average the four headline metrics.

        Args:
            method: Display name for the scores row.
            factory: A :class:`~repro.train.registry.TrainerSpec` (works
                serially and in parallel) or any ``seed -> Trainer``
                callable (serial only).
            n_jobs: Overrides ``settings.n_jobs`` when given.
        """
        return self.score_methods([(method, factory)], n_jobs=n_jobs)[0]

    def score_methods(
        self,
        methods: Sequence[tuple[str, TrainerFactory | TrainerSpec]],
        n_jobs: int | None = None,
    ) -> list[MethodScores]:
        """Score several methods, fanning the trainer×seed grid over workers.

        The full grid — every (method, seed) pair — is one task list, so
        a Table I sweep keeps all workers busy even when a single method
        has fewer seeds than workers.  Workers receive the encoded
        environments through one shared-memory pack (attached by the pool
        initializer, never pickled per task) and per-task seeds derived
        up front by :meth:`ExperimentSettings.derived_trainer_seeds`, so
        results are bit-identical to the serial path.  With an enabled
        tracer, each worker traces into a buffer and the records are
        merged back here, in task order.

        Args:
            methods: ``(display name, spec-or-factory)`` pairs.  Plain
                callables force the serial path (closures don't pickle).
            n_jobs: Overrides ``settings.n_jobs`` when given.

        Returns:
            One :class:`MethodScores` per input pair, in input order.
        """
        methods = list(methods)
        jobs = self.settings.n_jobs if n_jobs is None else int(n_jobs)
        if jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        seeds = self.settings.derived_trainer_seeds()
        picklable = all(
            isinstance(factory, TrainerSpec) for _, factory in methods
        )
        if jobs == 1 or not picklable:
            return [
                self._aggregate(
                    method,
                    [
                        self.evaluate_result(self.fit_trainer(factory(seed)))
                        for seed in seeds
                    ],
                )
                for method, factory in methods
            ]
        return self._score_methods_parallel(methods, seeds, jobs)

    def _score_methods_parallel(
        self,
        methods: Sequence[tuple[str, TrainerSpec]],
        seeds: Sequence[int],
        jobs: int,
    ) -> list[MethodScores]:
        from repro.parallel.worker import (
            FitTask,
            init_experiment_worker,
            run_fit_task,
        )

        traced = self.tracer.enabled
        tasks = [
            FitTask(method=method, spec=spec, seed=seed, traced=traced)
            for method, spec in methods
            for seed in seeds
        ]
        pack = pack_train_test(self.train_environments,
                               self.test_environments)
        try:
            with self.tracer.span("score_methods", n_jobs=jobs,
                                  n_tasks=len(tasks)):
                outcomes = ParallelEngine(n_jobs=jobs).map(
                    run_fit_task,
                    tasks,
                    initializer=init_experiment_worker,
                    initargs=(pack.spec,),
                )
                for index, (task, outcome) in enumerate(
                    zip(tasks, outcomes)
                ):
                    if outcome.records is not None:
                        self.tracer.merge_child_records(
                            outcome.records,
                            child_start_unix=outcome.start_unix,
                            method=task.method,
                            trainer_seed=task.seed,
                            task=index,
                        )
        finally:
            pack.dispose()
        reports = [outcome.report for outcome in outcomes]
        per_method = len(seeds)
        return [
            self._aggregate(
                method, reports[i * per_method:(i + 1) * per_method]
            )
            for i, (method, _) in enumerate(methods)
        ]

    def scores_by_environment(self, result: TrainResult,
                              dataset: LoanDataset) -> dict[str, np.ndarray]:
        """Model scores grouped by province for an arbitrary dataset slice."""
        encoded = self.extractor.transform(dataset)
        return dataset.by_province(
            result.predict_proba_grouped(encoded, dataset.provinces))
