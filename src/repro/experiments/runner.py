"""Shared infrastructure for the per-table/figure experiment modules.

Every experiment needs the same scaffolding: generate the synthetic platform
data, make the temporal (or i.i.d.) split, fit the shared GBDT feature
extractor once, and train/evaluate LR heads against the encoded
environments.  :class:`ExperimentContext` caches those stages so a benchmark
that regenerates several paper artefacts does the expensive work once.

:data:`EXPERIMENTS` is the one table of paper artefacts: each id names its
module, run and format functions and the :data:`PLATFORMS` entry it runs
on.  ``repro experiment`` reads it; ``benchmarks/`` and the examples
build their contexts on the same platforms.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.data.dataset import EnvironmentData, LoanDataset
from repro.data.generator import GeneratorConfig, LoanDataGenerator
from repro.data.provinces import (
    ProvinceRegistry,
    default_registry,
    extended_registry,
)
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
    "Platform",
    "PLATFORMS",
    "ExperimentSettings",
    "ExperimentContext",
    "MethodScores",
    "Experiment",
    "EXPERIMENTS",
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
class Platform:
    """A synthetic platform experiments run on, with its default sizes.

    Attributes:
        split: "temporal" (the paper's main protocol) or "iid" (Table VI).
        registry: Builds the province registry the generator draws from.
        n_samples: Default synthetic platform size.
        trainer_seeds: Default trainer seeds.
    """

    split: str
    registry: Callable[[], ProvinceRegistry]
    n_samples: int
    trainer_seeds: tuple[int, ...]


#: The platforms every paper artefact runs on, sized as the tracked
#: ``benchmarks/results/`` were made.  ``extended`` has the 26 provinces
#: of Table II/III's M, where the paper's S in {20, 10, 5} applies.
PLATFORMS = {
    "temporal": Platform("temporal", default_registry, 40_000, (0, 1, 2)),
    "iid": Platform("iid", default_registry, 40_000, (0, 1, 2)),
    "extended": Platform("temporal", extended_registry, 50_000, (0,)),
}


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by all experiments.

    Attributes:
        n_samples: Synthetic platform size; ``None`` takes the platform's
            (40k on ``temporal``, which keeps the whole benchmark suite in
            minutes while preserving every qualitative shape; raise toward
            ``GeneratorConfig.paper_scale()`` to match the paper's data
            volume).
        data_seed: Seed of the synthetic platform.
        trainer_seeds: Training is repeated for each seed and metrics are
            averaged, absorbing sampling noise in the stochastic trainers;
            ``None`` takes the platform's.
        platform: A :data:`PLATFORMS` key: its split, its provinces and
            the defaults of ``n_samples`` and ``trainer_seeds``.
        n_jobs: Worker processes for the trainer×seed fan-out.  ``1``
            (default) runs serially; any value produces bit-identical
            :class:`MethodScores`, because seeds attach to tasks rather
            than workers.
    """

    n_samples: int | None = None
    data_seed: int = 7
    trainer_seeds: tuple[int, ...] | None = None
    platform: str = "temporal"
    n_jobs: int = 1

    def __post_init__(self) -> None:
        if self.platform not in PLATFORMS:
            raise ValueError(
                f"platform must be one of {sorted(PLATFORMS)}, "
                f"got {self.platform!r}"
            )
        defaults = PLATFORMS[self.platform]
        if self.n_samples is None:
            object.__setattr__(self, "n_samples", defaults.n_samples)
        if self.trainer_seeds is None:
            object.__setattr__(self, "trainer_seeds", defaults.trainer_seeds)
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
    def platform(self) -> Platform:
        return PLATFORMS[self.settings.platform]

    @cached_property
    def generator_config(self) -> GeneratorConfig:
        return GeneratorConfig(
            n_samples=self.settings.n_samples,
            seed=self.settings.data_seed,
            registry=self.platform.registry(),
        )

    @cached_property
    def dataset(self) -> LoanDataset:
        return LoanDataGenerator(self.generator_config).generate()

    @cached_property
    def split(self) -> TrainTestSplit:
        if self.platform.split == "temporal":
            return temporal_split(self.dataset)
        return iid_split(self.dataset, seed=self.settings.data_seed)

    @cached_property
    def _fitted(self) -> tuple[GBDTFeatureExtractor, list[EnvironmentData]]:
        """The extractor fitted on the train rows, and the train
        environments encoded from the fit's own bins: one binning pass,
        and the bins are dropped when the encode is done."""
        extractor = GBDTFeatureExtractor()
        binned = extractor.fit_and_bin(self.split.train)
        return extractor, extractor.encode_environments(self.split.train,
                                                        binned)

    @property
    def extractor(self) -> GBDTFeatureExtractor:
        return self._fitted[0]

    @property
    def train_environments(self) -> list[EnvironmentData]:
        return self._fitted[1]

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
        return dataset.by_province(
            self.extractor.predict_proba(dataset, result))


class Experiment(NamedTuple):
    """One paper artefact: the code that makes it and its platform.

    Attributes:
        module: Module under :mod:`repro.experiments`, imported on use.
        run: The module's run function.
        format: The module's formatter of what ``run`` returns.
        takes: "context" (``run`` takes the :class:`ExperimentContext`) or
            "dataset" (its generated :class:`LoanDataset`).
        platform: The :data:`PLATFORMS` key it runs on.
    """

    module: str
    run: str
    format: str
    takes: str
    platform: str

    def render(self, context: ExperimentContext) -> str:
        """Run the artefact on ``context`` and return its formatted text."""
        module = importlib.import_module(f"repro.experiments.{self.module}")
        source = context.dataset if self.takes == "dataset" else context
        return getattr(module, self.format)(getattr(module, self.run)(source))


#: Experiment id -> artefact, in the paper's order.  Modules are named,
#: not imported, so reading the table loads no artefact module.
EXPERIMENTS = {
    "fig1": Experiment("fig1_province_map", "run_fig1", "format_fig1",
                       "context", "temporal"),
    "fig4": Experiment("fig4_vehicle_mix", "run_fig4", "format_fig4",
                       "dataset", "temporal"),
    "fig5": Experiment("fig5_online", "run_fig5", "format_fig5",
                       "context", "temporal"),
    "table1": Experiment("table1_main", "run_table1", "format_table1",
                         "context", "temporal"),
    "table2": Experiment("table2_sampling", "run_table2", "format_table2",
                         "context", "extended"),
    "table3": Experiment("table3_timing", "run_table3", "format_table3",
                         "context", "extended"),
    "fig8": Experiment("table2_sampling", "run_training_curves",
                       "format_curves", "context", "extended"),
    "fig9": Experiment("fig9_mrq_length", "run_fig9", "format_fig9",
                       "context", "temporal"),
    "table4": Experiment("table4_gamma", "run_table4", "format_table4",
                         "context", "temporal"),
    "fig10": Experiment("fig10_guangdong_share", "run_fig10", "format_fig10",
                        "dataset", "temporal"),
    "table5": Experiment("table5_guangdong", "run_table5", "format_table5",
                         "context", "temporal"),
    "fig11": Experiment("fig11_hubei", "run_fig11", "format_fig11",
                        "context", "temporal"),
    "table6": Experiment("table6_iid", "run_table6", "format_table6",
                         "context", "iid"),
}
