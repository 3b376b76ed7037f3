"""Successive-halving (ASHA-style) search over the parallel engine.

The paper's headline numbers hinge on the IRM penalty settings (λ, α,
MRQ length L, decay γ); this module makes selecting them a first-class,
reproducible computation instead of a hand-picked constant.  The
schedule is synchronous successive halving: sample ``n_trials``
configurations from a typed :class:`~repro.tune.space.HPSpace`, train
every survivor at a geometrically growing epoch budget, and after each
rung promote only the top ``1/eta`` fraction (fairness-blend objective,
deterministic trial-id tiebreak).

Reproducibility rules, inherited from the experiment runner:

* Every trial owns a ``SeedSequence`` stream derived in the parent from
  ``(search seed, "tune", crc32(trainer))`` — one child per trial, split
  into a parameter-sampling stream and a training seed.  Workers never
  derive seeds, so :func:`run_asha` is bit-identical at any ``n_jobs``.
* Trials ship to workers as :class:`~repro.parallel.worker.TrialTask`
  recipes over one shared-memory pack; results come back in submission
  order.
* Every completed (trial, rung) lands in a
  :class:`~repro.tune.buffer.ResultBuffer` and — when traced — the run
  log, which is the search's durable state: pass the reloaded records
  back as ``resume`` and matching evaluations replay instead of
  retraining.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.data.dataset import EnvironmentData
from repro.obs.runlog import TUNE_RUNG_EVENT, TUNE_SPAN
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.engine import ParallelEngine
from repro.parallel.shared import (
    SharedArrayPack,
    environments_to_arrays,
    pack_train_test,
)
from repro.parallel.worker import (
    TrialOutcome,
    TrialTask,
    init_experiment_worker,
    run_trial_task,
)
from repro.train.registry import TrainerSpec, resolve_trainer_name
from repro.tune.buffer import ResultBuffer, TrialRecord
from repro.tune.extractor_cache import CacheStats, ExtractorEncodingCache
from repro.tune.search import (
    RungSummary,
    SearchResult,
    TrialResult,
    check_objective,
    split_environments,
)
from repro.tune.space import HPSpace, JointHPSpace

__all__ = [
    "ASHAConfig",
    "Trial",
    "rung_budgets",
    "sample_trials",
    "sample_joint_trials",
    "select_promotions",
    "run_asha",
    "run_joint_asha",
    "run_grid",
]

#: Domain-separation tag of the tuning RNG stream root ("tune").
_TUNE_TAG = 0x74756E65

#: Extra tag of the extractor-configuration stream ("extr"), so the
#: joint search's extractor sampling never aliases its head sampling.
_EXTRACTOR_TAG = 0x65787472


@dataclass(frozen=True)
class ASHAConfig:
    """Knobs of one successive-halving search.

    Attributes:
        n_trials: Configurations sampled into rung 0.
        eta: Halving rate: each rung keeps the top ``1/eta`` fraction
            and multiplies the epoch budget by ``eta``.
        min_epochs: Budget of rung 0.
        max_epochs: Budget cap; rungs stop once the next budget would
            exceed it (see :func:`rung_budgets`).
        objective: Ranking metric — see
            :data:`~repro.tune.search.SUPPORTED_OBJECTIVES`.
        blend_weight: Worst-province weight of the ``"blend"`` objective.
        validation_fraction: Share of each environment held out for
            scoring trials (the true test set never enters the search).
        seed: Root entropy of the whole search: the validation split,
            every trial's sampled configuration and every training seed
            derive from it.
    """

    n_trials: int = 9
    eta: int = 3
    min_epochs: int = 5
    max_epochs: int = 45
    objective: str = "blend"
    blend_weight: float = 0.5
    validation_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.eta < 2:
            raise ValueError("eta must be >= 2")
        if self.min_epochs < 1:
            raise ValueError("min_epochs must be >= 1")
        if self.max_epochs < self.min_epochs:
            raise ValueError("max_epochs must be >= min_epochs")
        check_objective(self.objective, self.blend_weight)
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")


def rung_budgets(config: ASHAConfig) -> list[int]:
    """Epoch budgets of every rung: ``min_epochs * eta^k`` up to the cap.

    ``min_epochs=5, eta=3, max_epochs=45`` → ``[5, 15, 45]``.
    """
    budgets = []
    budget = config.min_epochs
    while budget <= config.max_epochs:
        budgets.append(budget)
        budget *= config.eta
    return budgets


def select_promotions(scores: Mapping[str, float], eta: int) -> list[str]:
    """Trial ids promoted to the next rung: the top ``1/eta`` fraction.

    At least one trial always survives.  Ties break on trial id, so the
    promotion set is a pure function of the scores — no dict-order or
    scheduling dependence.

    Args:
        scores: Trial id -> objective value at the current rung.
        eta: Halving rate.

    Returns:
        Promoted ids, best-first.
    """
    n_promote = max(1, len(scores) // eta)
    ranked = sorted(scores, key=lambda tid: (-scores[tid], tid))
    return ranked[:n_promote]


@dataclass(frozen=True)
class Trial:
    """One sampled configuration with its pre-derived training seed."""

    trial_id: str
    params: dict
    seed: int


def sample_trials(space: HPSpace, n_trials: int, seed: int,
                  trainer: str) -> list[Trial]:
    """Sample the rung-0 trial population from per-trial seed streams.

    The root stream is ``SeedSequence([seed, "tune", crc32(trainer)])``
    — tagged so tuning never shares a stream with data generation or the
    experiment fan-out, and trainer-salted so a multi-trainer search
    explores independently per trainer.  Each trial's child splits into
    a parameter-sampling stream and a training seed; both depend only on
    ``(seed, trainer, trial index)``, never on scheduling.
    """
    root = np.random.SeedSequence(
        [int(seed), _TUNE_TAG, zlib.crc32(trainer.encode("utf-8"))]
    )
    trials = []
    for index, child in enumerate(root.spawn(n_trials)):
        param_stream, train_stream = child.spawn(2)
        params = space.sample(np.random.default_rng(param_stream))
        trials.append(Trial(
            trial_id=f"t{index:03d}",
            params=params,
            seed=int(train_stream.generate_state(1)[0]),
        ))
    return trials


def sample_joint_trials(space: JointHPSpace, n_trials: int,
                        n_extractors: int, seed: int,
                        trainer: str) -> list[Trial]:
    """Sample joint (extractor, head) trials with shared extractor configs.

    Sampling every trial its own continuous extractor configuration
    would make every fingerprint distinct and the encoding cache inert;
    instead ``n_extractors`` configurations are drawn from a separately
    tagged stream and assigned round-robin — trial ``i`` gets
    configuration ``i % n_extractors`` — so the trials-per-distinct-
    extractor ratio (the cache's amortisation factor) is an explicit
    search knob.  Head halves are sampled exactly as
    :func:`sample_trials` samples them (same root, same per-trial
    streams), and everything remains a pure function of ``(seed,
    trainer, index)``.
    """
    if n_extractors < 1:
        raise ValueError("n_extractors must be >= 1")
    trainer_salt = zlib.crc32(trainer.encode("utf-8"))
    extractor_root = np.random.SeedSequence(
        [int(seed), _TUNE_TAG, _EXTRACTOR_TAG, trainer_salt]
    )
    configs = [
        space.extractor.sample(np.random.default_rng(child))
        for child in extractor_root.spawn(n_extractors)
    ]
    head_root = np.random.SeedSequence([int(seed), _TUNE_TAG, trainer_salt])
    trials = []
    for index, child in enumerate(head_root.spawn(n_trials)):
        param_stream, train_stream = child.spawn(2)
        params = space.head.sample(np.random.default_rng(param_stream))
        params["extractor"] = dict(configs[index % n_extractors])
        trials.append(Trial(
            trial_id=f"t{index:03d}",
            params=params,
            seed=int(train_stream.generate_state(1)[0]),
        ))
    return trials


# ---------------------------------------------------------------- rung core


def _reusable(
    resume: Mapping[tuple[str | None, str, int], TrialRecord] | None,
    trainer: str,
    trial: Trial,
    rung: int,
    budget: int | None,
) -> TrialRecord | None:
    """A previous run's record for this exact (trial, rung), if it still
    describes the same work: same trainer, params, seed and budget.  A
    search re-run with different knobs regenerates different trials, so
    stale records simply stop matching instead of poisoning the resume."""
    if resume is None:
        return None
    record = resume.get((trainer, trial.trial_id, rung))
    if record is None:
        return None
    if (
        record.params == trial.params
        and record.seed == trial.seed
        and record.budget == budget
    ):
        return record
    return None


def _evaluate_rung(
    trainer: str,
    trials: Sequence[Trial],
    rung: int,
    budget: int | None,
    evaluate: Callable[[list[Trial]], list[TrialOutcome]],
    buffer: ResultBuffer,
    resume: Mapping[tuple[str | None, str, int], TrialRecord] | None,
) -> dict[str, TrialResult]:
    """Score every trial at one rung, replaying resumable records.

    Cache hits skip training entirely; misses go through ``evaluate``
    (the engine fan-out) as one batch.  Every result — replayed or fresh — is re-recorded into ``buffer`` in
    trial order, so the current run log is self-contained.
    """
    reports: dict[str, tuple] = {}
    pending: list[Trial] = []
    for trial in trials:
        record = _reusable(resume, trainer, trial, rung, budget)
        if record is not None:
            reports[trial.trial_id] = (record.fairness_report(),
                                       record.train_seconds,
                                       record.encode_seconds,
                                       record.encode_cached)
        else:
            pending.append(trial)
    for trial, outcome in zip(pending, evaluate(pending) if pending else []):
        reports[trial.trial_id] = (outcome.report, outcome.train_seconds,
                                   outcome.encode_seconds,
                                   outcome.encode_cached)
    results: dict[str, TrialResult] = {}
    for trial in trials:
        report, train_seconds, encode_seconds, encode_cached = \
            reports[trial.trial_id]
        buffer.add(TrialRecord.from_report(
            trainer=trainer,
            trial_id=trial.trial_id,
            rung=rung,
            budget=budget,
            params=trial.params,
            seed=trial.seed,
            train_seconds=train_seconds,
            report=report,
            encode_seconds=encode_seconds,
            encode_cached=encode_cached,
        ))
        results[trial.trial_id] = TrialResult(
            params=dict(trial.params),
            report=report,
            train_seconds=train_seconds,
            trial_id=trial.trial_id,
            seed=trial.seed,
            rung=rung,
            budget=budget,
            encode_seconds=encode_seconds,
            encode_cached=encode_cached,
        )
    return results


def _drive_rungs(
    trainer: str,
    trials: list[Trial],
    budgets: Sequence[int | None],
    evaluate_factory: Callable[[int, int | None],
                               Callable[[list[Trial]], list[TrialOutcome]]],
    buffer: ResultBuffer,
    resume: Mapping[tuple[str | None, str, int], TrialRecord] | None,
    *,
    objective: str,
    blend_weight: float,
    eta: int | None,
    tracer: Tracer,
) -> tuple[dict[str, TrialResult], list[RungSummary]]:
    """The budget-ladder loop: evaluate, summarise, promote, repeat.

    Shared by the head-only and joint schedulers, which differ only in
    how a rung's pending trials become engine tasks — that part arrives
    as ``evaluate_factory(rung, budget)``.
    """
    best_results: dict[str, TrialResult] = {}
    rungs: list[RungSummary] = []
    survivors = list(trials)
    for rung, budget in enumerate(budgets):
        results = _evaluate_rung(
            trainer, survivors, rung, budget,
            evaluate_factory(rung, budget), buffer, resume,
        )
        best_results.update(results)
        last_rung = rung + 1 == len(budgets)
        if eta is None or last_rung:
            promoted: list[str] = []
        else:
            scores = {
                tid: r.objective_value(objective, blend_weight)
                for tid, r in results.items()
            }
            promoted = select_promotions(scores, eta)
        evaluated = tuple(t.trial_id for t in survivors)
        rungs.append(RungSummary(
            rung=rung, budget=budget,
            evaluated=evaluated, promoted=tuple(promoted),
        ))
        tracer.event(
            TUNE_RUNG_EVENT,
            trainer=trainer,
            rung=rung,
            budget=budget,
            evaluated=list(evaluated),
            promoted=list(promoted),
        )
        if eta is None or last_rung:
            break
        keep = set(promoted)
        survivors = [t for t in survivors if t.trial_id in keep]
    return best_results, rungs


def _trial_spec(trainer: str, params: Mapping[str, object],
                budget: int | None) -> TrainerSpec:
    """The head trainer recipe of one trial at one budget."""
    if budget is None:
        return TrainerSpec.of(trainer, **params)
    return TrainerSpec.of(trainer, n_epochs=budget, **params)


def _run_schedule(
    trainer: str,
    trials: list[Trial],
    budgets: Sequence[int | None],
    environments: Sequence[EnvironmentData],
    *,
    objective: str,
    blend_weight: float,
    validation_fraction: float,
    seed: int,
    eta: int | None,
    n_jobs: int,
    tracer: Tracer,
    resume: Mapping[tuple[str | None, str, int], TrialRecord] | None,
) -> SearchResult:
    """Drive a trial population through a budget ladder over the engine.

    Shared by ASHA (several budgets, promotions between them) and the
    engine-driven grid (one budget, no promotions — ``eta=None``).
    """
    fit_envs, valid_envs = split_environments(
        environments, validation_fraction, seed=seed
    )
    # Validation doubles as the workers' "test" prefix: trials are scored
    # on held-out rows, never on the true test environments.
    pack = pack_train_test(fit_envs, valid_envs)
    engine = ParallelEngine(n_jobs=n_jobs)
    buffer = ResultBuffer(tracer)
    try:
        with tracer.span(
            TUNE_SPAN,
            trainer=trainer,
            n_trials=len(trials),
            budgets=list(budgets),
            eta=eta,
            objective=objective,
            blend_weight=blend_weight,
            seed=seed,
            n_jobs=n_jobs,
        ):
            def evaluate_factory(rung: int, budget: int | None):
                def evaluate(pending: list[Trial]) -> list[TrialOutcome]:
                    tasks = [
                        TrialTask(
                            trial_id=t.trial_id,
                            rung=rung,
                            budget=budget,
                            spec=_trial_spec(trainer, t.params, budget),
                            seed=t.seed,
                        )
                        for t in pending
                    ]
                    return engine.map(
                        run_trial_task,
                        tasks,
                        initializer=init_experiment_worker,
                        initargs=(pack.spec,),
                    )
                return evaluate

            best_results, rungs = _drive_rungs(
                trainer, trials, budgets, evaluate_factory, buffer, resume,
                objective=objective, blend_weight=blend_weight, eta=eta,
                tracer=tracer,
            )
    finally:
        pack.dispose()
    result = SearchResult(
        trials=tuple(best_results[t.trial_id] for t in trials),
        objective=objective,
        blend_weight=blend_weight,
        rungs=tuple(rungs),
        trainer=trainer,
    )
    return replace(result, best=result.ranked()[0])


# -------------------------------------------------------------- entry points


def run_asha(
    space: HPSpace,
    environments: Sequence[EnvironmentData],
    config: ASHAConfig | None = None,
    *,
    n_jobs: int = 1,
    tracer: Tracer = NULL_TRACER,
    resume: Mapping[tuple[str | None, str, int], TrialRecord] | None = None,
) -> SearchResult:
    """Successive-halving search over a trainer-bound space.

    Args:
        space: A :class:`HPSpace` bound to a registered trainer.
        environments: Training environments; each is row-split into fit
            and validation parts (the validation side scores trials).
        config: Search knobs; defaults to :class:`ASHAConfig`.
        n_jobs: Worker processes for the trial fan-out.  Any value
            yields bit-identical results — seeds belong to trials.
        tracer: Run tracer; the search runs inside one ``tune_search``
            span with per-trial ``tune_trial`` and per-rung ``tune_rung``
            events, making the log the search's durable state.
        resume: ``(trainer, trial_id, rung) -> TrialRecord`` from a previous
            run's log (:func:`~repro.tune.buffer.load_trial_records`);
            records matching regenerated trials replay instead of
            retraining.

    Returns:
        A :class:`SearchResult` whose ``best`` reached the deepest rung
        with the highest objective.
    """
    config = config or ASHAConfig()
    trainer = resolve_trainer_name(space.trainer)
    trials = sample_trials(space, config.n_trials, config.seed, trainer)
    return _run_schedule(
        trainer,
        trials,
        rung_budgets(config),
        environments,
        objective=config.objective,
        blend_weight=config.blend_weight,
        validation_fraction=config.validation_fraction,
        seed=config.seed,
        eta=config.eta,
        n_jobs=n_jobs,
        tracer=tracer,
        resume=resume,
    )


def run_joint_asha(
    space: JointHPSpace,
    environments: Sequence[EnvironmentData],
    config: ASHAConfig | None = None,
    *,
    n_extractors: int = 3,
    n_jobs: int = 1,
    tracer: Tracer = NULL_TRACER,
    resume: Mapping[tuple[str | None, str, int], TrialRecord] | None = None,
    use_cache: bool = True,
    cache_bytes: int | None = None,
) -> tuple[SearchResult, CacheStats | None]:
    """Joint GBDT×head successive-halving over *raw* environments.

    Extends :func:`run_asha` with an extractor half: each trial carries
    one of ``n_extractors`` shared GBDT configurations
    (:func:`sample_joint_trials`), and the expensive fit + leaf-encode
    runs **once per distinct configuration** through the
    content-addressed :class:`~repro.tune.extractor_cache
    .ExtractorEncodingCache` — itself fanned over the engine — with head
    trials attaching the published shared-memory packs read-only.

    Bit-identity holds along both axes: any ``n_jobs`` (seeds belong to
    trials), and cached vs ``use_cache=False`` (both paths run the same
    pure encode pipeline; the uncached baseline simply re-runs it inside
    every trial, which is what ``BENCH_tune.json`` measures).

    Args:
        space: A :class:`~repro.tune.space.JointHPSpace`
            (:meth:`HPSpace.joint`).
        environments: Raw (un-encoded) per-province environments.
        config: Search knobs; defaults to :class:`ASHAConfig`.
        n_extractors: Distinct extractor configurations shared
            round-robin across trials.
        n_jobs: Worker processes for both fan-outs.
        tracer: Run tracer; adds ``tune_encode`` spans and ``tune_cache``
            events to the usual search stream.
        resume: As :func:`run_asha`.
        use_cache: ``False`` runs the per-trial inline-encode baseline.
        cache_bytes: Optional resident-byte budget of the pack store
            (LRU eviction; evicted encodings re-encode on demand).

    Returns:
        ``(search result, cache stats)`` — stats are ``None`` when
        ``use_cache=False``.

    Raises:
        TypeError: On a head-only space — use :func:`run_asha` there.
    """
    if not isinstance(space, JointHPSpace):
        raise TypeError(
            "run_joint_asha needs a JointHPSpace (HPSpace.joint); "
            "head-only spaces go through run_asha"
        )
    config = config or ASHAConfig()
    trainer = resolve_trainer_name(space.trainer)
    trials = sample_joint_trials(
        space, config.n_trials, n_extractors, config.seed, trainer
    )
    arrays, meta = environments_to_arrays(list(environments), "raw")
    raw_pack = SharedArrayPack.pack(arrays, meta)
    engine = ParallelEngine(n_jobs=n_jobs)
    buffer = ResultBuffer(tracer)
    cache = (
        ExtractorEncodingCache(
            environments,
            validation_fraction=config.validation_fraction,
            split_seed=config.seed,
            max_bytes=cache_bytes,
            tracer=tracer,
        )
        if use_cache
        else None
    )
    try:
        with tracer.span(
            TUNE_SPAN,
            trainer=trainer,
            n_trials=len(trials),
            budgets=rung_budgets(config),
            eta=config.eta,
            objective=config.objective,
            blend_weight=config.blend_weight,
            seed=config.seed,
            n_jobs=n_jobs,
            joint=True,
            n_extractors=n_extractors,
            cached=use_cache,
            cache_bytes=cache_bytes,
        ):
            def evaluate_factory(rung: int, budget: int | None):
                def evaluate(pending: list[Trial]) -> list[TrialOutcome]:
                    extractor_of = {
                        t.trial_id: dict(t.params["extractor"])
                        for t in pending
                    }
                    head_of = {
                        t.trial_id: {k: v for k, v in t.params.items()
                                     if k != "extractor"}
                        for t in pending
                    }
                    specs_by_fp: dict = {}
                    fps: dict[str, str] = {}
                    if cache is not None:
                        fps = {
                            tid: cache.fingerprint(params)
                            for tid, params in extractor_of.items()
                        }
                        specs_by_fp = cache.prepare(
                            [fps[t.trial_id] for t in pending],
                            {fps[tid]: extractor_of[tid] for tid in fps},
                            engine,
                            raw_pack.spec,
                        )
                    try:
                        tasks = []
                        for t in pending:
                            spec = _trial_spec(
                                trainer, head_of[t.trial_id], budget
                            )
                            if cache is not None:
                                task = TrialTask(
                                    trial_id=t.trial_id, rung=rung,
                                    budget=budget, spec=spec, seed=t.seed,
                                    pack=specs_by_fp[fps[t.trial_id]],
                                )
                            else:
                                task = TrialTask(
                                    trial_id=t.trial_id, rung=rung,
                                    budget=budget, spec=spec, seed=t.seed,
                                    extractor_params=extractor_of[t.trial_id],
                                    validation_fraction=(
                                        config.validation_fraction
                                    ),
                                    split_seed=config.seed,
                                )
                            tasks.append(task)
                        return engine.map(
                            run_trial_task,
                            tasks,
                            initializer=init_experiment_worker,
                            initargs=(raw_pack.spec,),
                        )
                    finally:
                        if cache is not None:
                            cache.release(list(specs_by_fp))
                return evaluate

            best_results, rungs = _drive_rungs(
                trainer, trials, rung_budgets(config), evaluate_factory,
                buffer, resume,
                objective=config.objective,
                blend_weight=config.blend_weight,
                eta=config.eta,
                tracer=tracer,
            )
    finally:
        raw_pack.dispose()
        if cache is not None:
            cache.dispose()
    result = SearchResult(
        trials=tuple(best_results[t.trial_id] for t in trials),
        objective=config.objective,
        blend_weight=config.blend_weight,
        rungs=tuple(rungs),
        trainer=trainer,
    )
    result = replace(result, best=result.ranked()[0])
    return result, (cache.stats if cache is not None else None)


def run_grid(
    space: HPSpace,
    environments: Sequence[EnvironmentData],
    *,
    objective: str = "blend",
    blend_weight: float = 0.5,
    validation_fraction: float = 0.25,
    seed: int = 0,
    n_epochs: int | None = None,
    n_jobs: int = 1,
    tracer: Tracer = NULL_TRACER,
    resume: Mapping[tuple[str | None, str, int], TrialRecord] | None = None,
) -> SearchResult:
    """Exhaustive engine-driven search over an enumerable bound space.

    The degenerate single-rung schedule: every grid point is one trial,
    nothing is promoted.  Trials still get independent training seeds
    from the tagged per-trial streams, results still flow through the
    buffer/run-log machinery, and ``n_jobs``/``resume`` work exactly as
    in :func:`run_asha`.

    Args:
        n_epochs: Epoch budget of every trial (``None`` keeps each
            config's own default).
        (others): As :func:`run_asha`.
    """
    check_objective(objective, blend_weight)
    trainer = resolve_trainer_name(space.trainer)
    root = np.random.SeedSequence(
        [int(seed), _TUNE_TAG, zlib.crc32(trainer.encode("utf-8"))]
    )
    points = space.grid_points()
    trials = [
        Trial(
            trial_id=f"g{index:03d}",
            params=dict(params),
            seed=int(child.spawn(2)[1].generate_state(1)[0]),
        )
        for (index, params), child in zip(enumerate(points),
                                          root.spawn(len(points)))
    ]
    return _run_schedule(
        trainer,
        trials,
        [n_epochs],
        environments,
        objective=objective,
        blend_weight=blend_weight,
        validation_fraction=validation_fraction,
        seed=seed,
        eta=None,
        n_jobs=n_jobs,
        tracer=tracer,
        resume=resume,
    )
