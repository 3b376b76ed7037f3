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
* Every completed (trial, rung) is one
  :class:`~repro.tune.search.TrialResult`, emitted — when traced — to
  the run log, which is the search's durable state: pass the reloaded
  records back as ``resume`` and evaluations of the same work on the
  same data replay instead of retraining.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.data.dataset import EnvironmentData
from repro.obs.runlog import TUNE_RUNG_EVENT, TUNE_SPAN, TUNE_TRIAL_EVENT
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
from repro.tune.extractor_cache import (
    CacheStats,
    ExtractorEncodingCache,
    environments_fingerprint,
)
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

#: ``(trainer, trial id, rung) -> record`` of a previous run's log.
Resume = Mapping[tuple[str, str, int], TrialResult]


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


def _stream_root(seed: int, trainer: str,
                 *tags: int) -> np.random.SeedSequence:
    """``SeedSequence([seed, "tune", *tags, crc32(trainer)])``."""
    return np.random.SeedSequence(
        [int(seed), _TUNE_TAG, *tags, zlib.crc32(trainer.encode("utf-8"))]
    )


def _trial_streams(
    seed: int, trainer: str, n_trials: int,
) -> Iterator[tuple[np.random.SeedSequence, int]]:
    """Each trial index's (parameter-sampling stream, training seed).

    The root stream is tagged so tuning never shares a stream with data
    generation or the experiment fan-out, and trainer-salted so a
    multi-trainer search explores independently per trainer.  Both
    halves depend only on ``(seed, trainer, trial index)``, never on
    scheduling.
    """
    for child in _stream_root(seed, trainer).spawn(n_trials):
        param_stream, train_stream = child.spawn(2)
        yield param_stream, int(train_stream.generate_state(1)[0])


def sample_trials(space: HPSpace, n_trials: int, seed: int,
                  trainer: str) -> list[Trial]:
    """Sample the rung-0 trial population from per-trial seed streams."""
    return [
        Trial(trial_id=f"t{index:03d}",
              params=space.sample(np.random.default_rng(param_stream)),
              seed=train_seed)
        for index, (param_stream, train_seed)
        in enumerate(_trial_streams(seed, trainer, n_trials))
    ]


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
    search knob.  Head halves are exactly :func:`sample_trials`'s, and
    everything remains a pure function of ``(seed, trainer, index)``.
    """
    if n_extractors < 1:
        raise ValueError("n_extractors must be >= 1")
    configs = [
        space.extractor.sample(np.random.default_rng(child))
        for child in _stream_root(seed, trainer, _EXTRACTOR_TAG)
        .spawn(n_extractors)
    ]
    return [
        Trial(trial_id=trial.trial_id,
              params={**trial.params,
                      "extractor": dict(configs[index % n_extractors])},
              seed=trial.seed)
        for index, trial
        in enumerate(sample_trials(space.head, n_trials, seed, trainer))
    ]


# ---------------------------------------------------------------- rung core

#: Scores one rung's pending trials: ``(rung, budget, trials) ->``
#: one outcome per trial, in order.
Evaluate = Callable[[int, "int | None", list[Trial]], list[TrialOutcome]]


def _data_key(environments: Sequence[EnvironmentData],
              validation_fraction: float) -> dict:
    """What a search's scores depend on besides its trials."""
    return {
        "environments": environments_fingerprint(environments),
        "validation_fraction": float(validation_fraction),
    }


def _reusable(
    resume: Resume | None,
    trainer: str,
    trial: Trial,
    rung: int,
    budget: int | None,
    data: dict,
) -> TrialResult | None:
    """A previous run's record for this exact (trial, rung), if it
    describes the same work on the same data: same trainer, params, seed
    and budget, and the same ``data`` key.  Trial sampling ignores the
    data, so without that key a resume over other environments or
    another validation fraction would replay scores computed elsewhere;
    records from logs that predate the key carry none and retrain."""
    record = (resume or {}).get((trainer, trial.trial_id, rung))
    if (
        record is not None
        and record.params == trial.params
        and record.seed == trial.seed
        and record.budget == budget
        and record.data == data
    ):
        return record
    return None


def _evaluate_rung(
    trainer: str,
    trials: Sequence[Trial],
    rung: int,
    budget: int | None,
    data: dict,
    evaluate: Evaluate,
    resume: Resume | None,
    tracer: Tracer,
) -> tuple[dict[str, TrialResult], int]:
    """Score every trial at one rung, replaying resumable records.

    Replays skip training entirely; the rest go through ``evaluate``
    (the engine fan-out) as one batch.  Every result — replayed or
    fresh — is emitted as a ``tune_trial`` event in trial order, so the
    current run log is itself a complete resume source.  Returns the
    results in trial order and how many of them were replayed.
    """
    results: dict[str, TrialResult] = {}
    pending: list[Trial] = []
    for trial in trials:
        record = _reusable(resume, trainer, trial, rung, budget, data)
        if record is not None:
            results[trial.trial_id] = record
        else:
            pending.append(trial)
    for trial, outcome in zip(
        pending, evaluate(rung, budget, pending) if pending else []
    ):
        results[trial.trial_id] = TrialResult(
            trainer=trainer,
            trial_id=trial.trial_id,
            rung=rung,
            budget=budget,
            params=dict(trial.params),
            seed=trial.seed,
            report=outcome.report,
            data=data,
            train_seconds=outcome.train_seconds,
            encode_seconds=outcome.encode_seconds,
            encode_cached=outcome.encode_cached,
        )
    ordered = {t.trial_id: results[t.trial_id] for t in trials}
    for result in ordered.values():
        tracer.event(TUNE_TRIAL_EVENT, **result.to_fields())
    return ordered, len(trials) - len(pending)


def _trial_task(trainer: str, trial: Trial, rung: int, budget: int | None,
                **extractor) -> TrialTask:
    """The engine task of one trial at one rung.

    The head recipe gets the trial's params minus a joint trial's
    ``"extractor"`` half, which travels in ``extractor`` (a cached pack
    or inline-encode fields) instead.
    """
    head = {k: v for k, v in trial.params.items() if k != "extractor"}
    if budget is not None:
        head["n_epochs"] = budget
    return TrialTask(trial_id=trial.trial_id, rung=rung, budget=budget,
                     spec=TrainerSpec.of(trainer, **head), seed=trial.seed,
                     **extractor)


def _run_schedule(
    trainer: str,
    trials: list[Trial],
    budgets: Sequence[int | None],
    pack: SharedArrayPack,
    evaluate: Evaluate,
    *,
    data: dict,
    objective: str,
    blend_weight: float,
    eta: int | None,
    tracer: Tracer,
    resume: Resume | None,
    **span_fields,
) -> SearchResult:
    """Drive a trial population through a budget ladder; disposes ``pack``.

    The one driver of every search: evaluate a rung, summarise it,
    promote the top ``1/eta``, repeat.  ASHA runs several budgets; the
    grid runs one with no promotions (``eta=None``).  How a rung's
    pending trials become engine tasks is the caller's ``evaluate``.
    """
    best_results: dict[str, TrialResult] = {}
    rungs: list[RungSummary] = []
    replayed = 0
    survivors = list(trials)
    try:
        with tracer.span(
            TUNE_SPAN,
            trainer=trainer,
            n_trials=len(trials),
            budgets=list(budgets),
            eta=eta,
            objective=objective,
            blend_weight=blend_weight,
            **span_fields,
        ):
            for rung, budget in enumerate(budgets):
                results, n_replayed = _evaluate_rung(
                    trainer, survivors, rung, budget, data, evaluate,
                    resume, tracer)
                replayed += n_replayed
                best_results.update(results)
                last_rung = eta is None or rung + 1 == len(budgets)
                promoted = [] if last_rung else select_promotions(
                    {tid: r.objective_value(objective, blend_weight)
                     for tid, r in results.items()},
                    eta,
                )
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
                if last_rung:
                    break
                keep = set(promoted)
                survivors = [t for t in survivors if t.trial_id in keep]
    finally:
        pack.dispose()
    return SearchResult(
        trials=tuple(best_results[t.trial_id] for t in trials),
        objective=objective,
        blend_weight=blend_weight,
        rungs=tuple(rungs),
        trainer=trainer,
        replayed=replayed,
    )


def _run_head_search(
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
    resume: Resume | None,
) -> SearchResult:
    """ASHA and grid over already-encoded environments: one split, one
    shared pack every rung's trials attach."""
    engine = ParallelEngine(n_jobs=n_jobs)
    data = _data_key(environments, validation_fraction)
    fit_envs, valid_envs = split_environments(
        environments, validation_fraction, seed=seed
    )
    # Validation doubles as the workers' "test" prefix: trials are scored
    # on held-out rows, never on the true test environments.
    pack = pack_train_test(fit_envs, valid_envs)

    def evaluate(rung: int, budget: int | None,
                 pending: list[Trial]) -> list[TrialOutcome]:
        return engine.map(
            run_trial_task,
            [_trial_task(trainer, t, rung, budget) for t in pending],
            initializer=init_experiment_worker,
            initargs=(pack.spec,),
        )

    return _run_schedule(
        trainer, trials, budgets, pack, evaluate,
        data=data,
        objective=objective, blend_weight=blend_weight, eta=eta,
        tracer=tracer, resume=resume, seed=seed, n_jobs=n_jobs,
    )


# -------------------------------------------------------------- entry points


def run_asha(
    space: HPSpace,
    environments: Sequence[EnvironmentData],
    config: ASHAConfig | None = None,
    *,
    n_jobs: int = 1,
    tracer: Tracer = NULL_TRACER,
    resume: Resume | None = None,
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
        resume: ``(trainer, trial_id, rung) -> TrialResult`` from a
            previous run's log
            (:func:`~repro.tune.search.load_trial_records`); records of
            the same work on the same data replay instead of retraining.

    Returns:
        A :class:`SearchResult` whose ``best`` reached the deepest rung
        with the highest objective.
    """
    config = config or ASHAConfig()
    trainer = resolve_trainer_name(space.trainer)
    return _run_head_search(
        trainer,
        sample_trials(space, config.n_trials, config.seed, trainer),
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
    resume: Resume | None = None,
    use_cache: bool = True,
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
    engine = ParallelEngine(n_jobs=n_jobs)
    data = _data_key(environments, config.validation_fraction)
    cache = (
        ExtractorEncodingCache(
            environments,
            validation_fraction=config.validation_fraction,
            split_seed=config.seed,
            tracer=tracer,
        )
        if use_cache
        else None
    )

    def evaluate(rung: int, budget: int | None,
                 pending: list[Trial]) -> list[TrialOutcome]:
        if cache is None:
            # Every trial fits + leaf-encodes its extractor inline.
            tasks = [
                _trial_task(trainer, t, rung, budget,
                            extractor_params=dict(t.params["extractor"]),
                            validation_fraction=config.validation_fraction,
                            split_seed=config.seed)
                for t in pending
            ]
            return engine.map(run_trial_task, tasks,
                              initializer=init_experiment_worker,
                              initargs=(raw_pack.spec,))
        fps = [cache.fingerprint(t.params["extractor"]) for t in pending]
        packs = cache.prepare(
            fps,
            {fp: t.params["extractor"] for fp, t in zip(fps, pending)},
            engine,
            raw_pack.spec,
        )
        return engine.map(
            run_trial_task,
            [_trial_task(trainer, t, rung, budget, pack=packs[fp])
             for fp, t in zip(fps, pending)],
            initializer=init_experiment_worker,
            initargs=(raw_pack.spec,),
        )

    try:
        raw_pack = SharedArrayPack.pack(
            *environments_to_arrays(list(environments), "raw")
        )
        result = _run_schedule(
            trainer, trials, rung_budgets(config), raw_pack, evaluate,
            data=data,
            objective=config.objective,
            blend_weight=config.blend_weight,
            eta=config.eta,
            tracer=tracer,
            resume=resume,
            seed=config.seed,
            n_jobs=n_jobs,
            joint=True,
            n_extractors=n_extractors,
            cached=use_cache,
        )
    finally:
        if cache is not None:
            cache.dispose()
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
    resume: Resume | None = None,
) -> SearchResult:
    """Exhaustive engine-driven search over an enumerable bound space.

    The degenerate single-rung schedule: every grid point is one trial,
    nothing is promoted.  Trials still get independent training seeds
    from the tagged per-trial streams, results still flow through the
    run-log machinery, and ``n_jobs``/``resume`` work exactly as in
    :func:`run_asha`.

    Args:
        n_epochs: Epoch budget of every trial (``None`` keeps each
            config's own default).
        (others): As :func:`run_asha`.
    """
    check_objective(objective, blend_weight)
    trainer = resolve_trainer_name(space.trainer)
    points = space.grid_points()
    trials = [
        Trial(trial_id=f"g{index:03d}", params=params, seed=train_seed)
        for index, (params, (_, train_seed))
        in enumerate(zip(points, _trial_streams(seed, trainer, len(points))))
    ]
    return _run_head_search(
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
