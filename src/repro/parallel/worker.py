"""Worker-side entry points of the experiment trainer×seed fan-out.

The pool initializer attaches the parent's shared-memory pack once per
worker process and rebuilds the encoded train/test environments as
zero-copy views; after that, each :class:`FitTask` travelling down the
task pipe is a few hundred bytes (a trainer spec, a seed, a flag).

Everything here is module-level and picklable by construction, so the
same code runs under ``fork`` and ``spawn`` start methods — and inline
in the parent when ``n_jobs=1``, where :func:`init_experiment_worker`
simply populates the module state of the calling process.  Each module a
task runs is imported here at module scope, so a forked worker imports
nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

from repro.data.dataset import EnvironmentData
from repro.experiments.runner import evaluate_result_on
from repro.gbdt.packing import fit_extractor_encode
from repro.metrics.fairness import FairnessReport
from repro.obs.tracer import Tracer
from repro.parallel.shared import (
    PackSpec,
    SharedArrayPack,
    environments_from_arrays,
)
from repro.pipeline.extractor import default_gbdt_params
from repro.train.registry import TrainerSpec
from repro.tune.search import split_environments

__all__ = [
    "FitTask",
    "FitOutcome",
    "TrialTask",
    "TrialOutcome",
    "EncodeTask",
    "EncodeOutcome",
    "init_experiment_worker",
    "run_fit_task",
    "run_trial_task",
    "run_encode_task",
]

#: Per-process state: the attached pack plus rebuilt environments.
_STATE: dict = {}

#: Environment-list prefixes an initializer pack may carry.  ``"raw"``
#: ships un-encoded per-province environments for joint searches, where
#: the extractor runs against raw features instead of a pre-encoded
#: design matrix.
_KNOWN_PREFIXES = ("train", "test", "raw")


def init_experiment_worker(spec: PackSpec) -> None:
    """Attach the shared pack and rebuild its environment lists.

    Runs once per worker process (or once inline for ``n_jobs=1``).  The
    pack object is kept in module state so the mapping stays alive for
    the lifetime of the worker; environments are zero-copy views into it.

    The pack may carry any subset of the known prefixes: the experiment
    and head-only tuning fan-outs ship ``"train"``/``"test"`` encoded
    environments, joint searches ship ``"raw"`` per-province
    environments (the extractor half runs worker-side or in dedicated
    encode tasks).
    """
    pack = SharedArrayPack.attach(spec)
    arrays = pack.arrays()
    meta = spec.metadata()
    _STATE.clear()
    _STATE["pack"] = pack
    for prefix in _KNOWN_PREFIXES:
        if prefix in meta:
            _STATE[prefix] = environments_from_arrays(arrays, meta, prefix)


def _attached_environments(spec: PackSpec) -> tuple[list, list]:
    """Per-process memoized attach of an encoded train/test pack.

    Cached-path trials of one rung share their extractor's pack; the
    first trial of each distinct pack attaches and rebuilds the views,
    the rest reuse them.  The memo lives for the worker's lifetime —
    bounded, because the engine builds a fresh pool per ``map`` call.
    """
    memo = _STATE.setdefault("attached", {})
    if spec.shm_name not in memo:
        pack = SharedArrayPack.attach(spec)
        arrays = pack.arrays()
        meta = spec.metadata()
        memo[spec.shm_name] = (
            pack,
            environments_from_arrays(arrays, meta, "train"),
            environments_from_arrays(arrays, meta, "test"),
        )
    _, train, test = memo[spec.shm_name]
    return train, test


def worker_environments(which: str) -> list[EnvironmentData]:
    """The rebuilt ``"train"``/``"test"`` environments of this process.

    Raises:
        RuntimeError: If :func:`init_experiment_worker` has not run here.
    """
    if which not in _STATE:
        raise RuntimeError(
            "worker not initialized — init_experiment_worker must run "
            "(as the pool initializer) before tasks execute"
        )
    return _STATE[which]


@dataclass(frozen=True)
class FitTask:
    """One (method, seed) unit of the experiment fan-out.

    Attributes:
        method: Display name the parent aggregates under.
        spec: Declarative trainer recipe (picklable, unlike a closure).
        seed: Training seed for this repeat, already derived by the
            parent via ``SeedSequence.spawn`` — workers never derive
            seeds themselves, so results cannot depend on scheduling.
        traced: When true, the fit runs under a buffering tracer whose
            records are shipped back for merging into the parent log.
    """

    method: str
    spec: TrainerSpec
    seed: int
    traced: bool = False


@dataclass(frozen=True)
class FitOutcome:
    """What a worker sends back: the evaluation plus optional trace.

    Attributes:
        report: Per-province fairness report on the test environments.
        records: The worker tracer's buffered records (``None`` when the
            task was untraced).
        start_unix: Wall-clock start of the worker tracer, letting the
            parent place merged spans on its own timeline.
    """

    report: FairnessReport
    records: list[dict] | None
    start_unix: float


def run_fit_task(task: FitTask) -> FitOutcome:
    """Train one seeded head on the shared environments and evaluate it."""
    tracer = Tracer(enabled=task.traced)
    result = task.spec.build(task.seed).fit(
        worker_environments("train"), tracer=tracer
    )
    report = evaluate_result_on(result, worker_environments("test"))
    records = list(tracer.records) if task.traced else None
    return FitOutcome(report=report, records=records,
                      start_unix=tracer.start_unix)


@dataclass(frozen=True)
class TrialTask:
    """One (trial, rung) unit of a hyper-parameter search fan-out.

    Attributes:
        trial_id: Trial identity the parent aggregates under.
        rung: Rung index this evaluation runs at.
        budget: Epoch budget of the rung; already baked into ``spec`` as
            its ``n_epochs`` override (``None`` — the grid path — leaves
            the config's own epoch count in force).
        spec: Trainer recipe with the trial's sampled configuration
            (head half only for joint trials — the extractor half rides
            in ``extractor_params``/``pack``).
        seed: Per-trial training seed, derived in the parent from the
            trial's ``SeedSequence`` stream — same rule as
            :class:`FitTask`, so search results cannot depend on which
            worker runs which trial.
        pack: Cached joint path — spec of the immutable encoded
            train/test pack its extractor published; the head attaches
            read-only and never touches raw features.
        extractor_params: Uncached joint path — flat GBDT overrides the
            worker applies to the default extractor configuration before
            fitting + leaf-encoding the shared ``"raw"`` environments
            itself (the per-trial baseline the cache is measured
            against).
        validation_fraction: Fit/validation row split of the encoded
            environments (uncached joint path only — the cached path's
            pack is already split).
        split_seed: Entropy of that split and of the extractor's
            early-stopping holdout; parent-derived, scheduling-free.
    """

    trial_id: str
    rung: int
    budget: int | None
    spec: TrainerSpec
    seed: int
    pack: PackSpec | None = None
    extractor_params: Mapping[str, object] | None = None
    validation_fraction: float | None = None
    split_seed: int | None = None


@dataclass(frozen=True)
class TrialOutcome:
    """What a trial evaluation sends back to the scheduler.

    Attributes:
        trial_id: Echoed task identity.
        rung: Echoed rung index.
        report: Fairness report on the shared validation ("test")
            environments — the scheduler scores its objective off this.
        train_seconds: Wall-clock of the fit alone (non-deterministic;
            excluded from bit-identity comparisons downstream).
        encode_seconds: Wall-clock this trial spent fitting and
            leaf-encoding its extractor (0.0 on the cached and head-only
            paths — the cache reports amortised encode cost itself).
        encode_cached: ``True`` when the trial attached a cached
            encoding, ``False`` when it encoded inline, ``None`` for
            head-only trials with no extractor half.
    """

    trial_id: str
    rung: int
    report: FairnessReport
    train_seconds: float
    encode_seconds: float = 0.0
    encode_cached: bool | None = None


def _fit_and_score(task: TrialTask, fit_envs, valid_envs,
                   encode_seconds: float = 0.0,
                   encode_cached: bool | None = None) -> TrialOutcome:
    started = time.perf_counter()
    result = task.spec.build(task.seed).fit(fit_envs)
    train_seconds = time.perf_counter() - started
    report = evaluate_result_on(result, valid_envs)
    return TrialOutcome(trial_id=task.trial_id, rung=task.rung,
                        report=report, train_seconds=train_seconds,
                        encode_seconds=encode_seconds,
                        encode_cached=encode_cached)


def run_trial_task(task: TrialTask) -> TrialOutcome:
    """Train one trial configuration at its rung budget and evaluate it.

    Fits on the shared ``"train"`` environments and scores on ``"test"``
    — for tuning, the parent packs the *validation* slice under the test
    prefix, keeping the true test set out of the selection loop.

    Three modes, by which extractor payload the task carries:

    * ``pack`` set — cached joint trial: attach the published encoded
      pack (memoized per worker) and fit the head on its views.
    * ``extractor_params`` set — uncached joint trial: fit + leaf-encode
      the extractor against the shared ``"raw"`` environments, split,
      then fit the head.  Bit-identical to the cached mode because both
      run the same :func:`~repro.gbdt.packing.fit_extractor_encode` /
      :func:`~repro.tune.search.split_environments` pipeline on the same
      inputs.
    * neither — head-only trial on the pre-encoded ``"train"``/``"test"``
      environments (the original tuning path).
    """
    if task.pack is not None:
        fit_envs, valid_envs = _attached_environments(task.pack)
        return _fit_and_score(task, fit_envs, valid_envs,
                              encode_cached=True)
    if task.extractor_params is not None:
        fit_envs, valid_envs, encode_seconds = _encode_for_task(
            dict(task.extractor_params),
            task.validation_fraction,
            task.split_seed,
        )
        return _fit_and_score(task, fit_envs, valid_envs,
                              encode_seconds=encode_seconds,
                              encode_cached=False)
    return _fit_and_score(task, worker_environments("train"),
                          worker_environments("test"))


def _encode_for_task(
    extractor_params: dict,
    validation_fraction: float,
    split_seed: int,
) -> tuple[list[EnvironmentData], list[EnvironmentData], float]:
    """Fit + leaf-encode the extractor on the shared raw environments.

    The single encode pipeline both joint modes share: flat overrides on
    the default GBDT configuration, pooled fit with a tagged
    early-stopping holdout, per-environment leaf encoding, then the
    standard fit/validation row split.  Everything is a pure function of
    its arguments plus the shared raw environments, which is what makes
    the cached and uncached paths bit-identical.
    """
    params = default_gbdt_params().replace_flat(extractor_params)
    _, encoded, encode_seconds = fit_extractor_encode(
        params, worker_environments("raw"), holdout_seed=split_seed
    )
    fit_envs, valid_envs = split_environments(
        encoded, validation_fraction, seed=split_seed
    )
    return fit_envs, valid_envs, encode_seconds


@dataclass(frozen=True)
class EncodeTask:
    """One distinct extractor configuration to fit + leaf-encode.

    The cached joint scheduler fans these over the engine — one per
    distinct extractor fingerprint, regardless of how many trials share
    it.

    Attributes:
        fingerprint: Content-address of the resulting encoding (see
            :mod:`repro.tune.extractor_cache`); echoed back so the
            parent can publish the pack under the right key.
        extractor_params: Flat GBDT overrides of this configuration.
        validation_fraction: Fit/validation split of the encoded rows.
        split_seed: Entropy of that split and the early-stopping holdout.
    """

    fingerprint: str
    extractor_params: Mapping[str, object]
    validation_fraction: float
    split_seed: int


@dataclass(frozen=True)
class EncodeOutcome:
    """A fitted extractor's encoded, split environments.

    Encoded environments pickle back through the result pipe; the parent
    immediately republishes them as an immutable shared pack, so the
    copy happens once per distinct configuration rather than per trial.
    """

    fingerprint: str
    fit_environments: list[EnvironmentData]
    valid_environments: list[EnvironmentData]
    encode_seconds: float


def run_encode_task(task: EncodeTask) -> EncodeOutcome:
    """Fit + leaf-encode one extractor configuration on the raw pack."""
    fit_envs, valid_envs, encode_seconds = _encode_for_task(
        dict(task.extractor_params),
        task.validation_fraction,
        task.split_seed,
    )
    return EncodeOutcome(
        fingerprint=task.fingerprint,
        fit_environments=fit_envs,
        valid_environments=valid_envs,
        encode_seconds=encode_seconds,
    )
