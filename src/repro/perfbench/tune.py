"""Joint-search benchmark: the extractor-encoding cache, on vs off.

Runs the same joint GBDT×head ASHA search twice through
:func:`~repro.tune.asha.run_joint_asha` — once with the
content-addressed :class:`~repro.tune.extractor_cache.ExtractorEncodingCache`
publishing each distinct extractor encoding exactly once, once with every
trial evaluation re-fitting and re-encoding inline — asserting along the
way that the two leaderboards are **bit-identical** (the cache is a pure
perf optimisation or it is a bug).  The payload (:data:`TUNE_PAYLOAD`)
lands in tracked ``BENCH_tune.json``.

Wall-clock barely moves on a 1-core CI container (the encodes serialise
either way), so the headline number is *encode work*: the cache's
measured ``encode_seconds`` against the per-hit costs it avoided
(``encode_seconds_saved``).  With T trial evaluations over E distinct
extractor configurations the expected ratio is ~T/E.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.experiments.runner import ExperimentContext, ExperimentSettings
from repro.perfbench.payload import BenchPayload

__all__ = ["TUNE_PAYLOAD", "TuneBenchConfig", "run_tune_benchmark"]


@dataclass(frozen=True)
class TuneBenchConfig:
    """Sizes of one cached-vs-uncached joint-search comparison.

    The default is the tracked configuration: 8 trials round-robined over
    2 distinct extractor configurations under an eta=2 two-rung schedule
    gives 12 trial evaluations — 6 per extractor, so the cache replaces
    12 fit+leaf-encodes with 2.  :meth:`smoke` shrinks the data for CI
    rot-protection while keeping trials-per-extractor at 4.

    Attributes:
        n_samples: Synthetic platform size.
        data_seed: Platform seed.
        trainer: Head trainer searched (its registered default space).
        n_trials: Joint configurations sampled.
        n_extractors: Distinct extractor configurations shared round-robin
            across the trials.
        eta: Halving rate between rungs.
        min_epochs: Epoch budget of rung 0.
        max_epochs: Epoch budget cap of the last rung.
        seed: Search seed (sampling, splits, trial seeds).
        n_jobs: Worker processes for the trial fan-out.
    """

    n_samples: int = 6_000
    data_seed: int = 7
    trainer: str = "ERM"
    n_trials: int = 8
    n_extractors: int = 2
    eta: int = 2
    min_epochs: int = 4
    max_epochs: int = 8
    seed: int = 0
    n_jobs: int = 1

    @classmethod
    def smoke(cls) -> "TuneBenchConfig":
        """Tiny comparison: every path exercised, nothing timed long."""
        return cls(n_samples=2_500, n_trials=4, max_epochs=4)


def run_tune_benchmark(config: TuneBenchConfig | None = None) -> dict:
    """Run the cached-vs-uncached comparison; returns its results dict.

    Returns:
        ``{"joint_search": {...}}`` with wall-clock for both modes, the
        cache's hit/miss/encode accounting, the encode-work speedup and
        the ``bit_identical`` flag CI gates on.
    """
    from repro.tune.asha import ASHAConfig, run_joint_asha
    from repro.tune.leaderboard import ranked_trials
    from repro.tune.space import (
        HPSpace, default_extractor_space, default_space,
    )

    config = config or TuneBenchConfig()
    context = ExperimentContext(
        ExperimentSettings(n_samples=config.n_samples,
                           data_seed=config.data_seed)
    )
    # Joint searches consume *raw* (un-encoded) environments — the
    # extractor half of each trial owns the encoding.
    environments = context.split.train.environments()
    space = HPSpace.joint(default_extractor_space(),
                          default_space(config.trainer))
    asha = ASHAConfig(
        n_trials=config.n_trials, eta=config.eta,
        min_epochs=config.min_epochs, max_epochs=config.max_epochs,
        seed=config.seed,
    )

    start = time.perf_counter()
    uncached_result, _ = run_joint_asha(
        space, environments, asha,
        n_extractors=config.n_extractors, n_jobs=config.n_jobs,
        use_cache=False,
    )
    uncached_wall = time.perf_counter() - start

    start = time.perf_counter()
    cached_result, stats = run_joint_asha(
        space, environments, asha,
        n_extractors=config.n_extractors, n_jobs=config.n_jobs,
        use_cache=True,
    )
    cached_wall = time.perf_counter() - start

    identical = (ranked_trials([cached_result])
                 == ranked_trials([uncached_result]))
    evaluations = sum(len(r.evaluated) for r in cached_result.rungs)
    # Total encode work an uncached run performs, estimated from the
    # cache's own accounting: what it spent encoding each distinct
    # configuration once, plus the per-hit costs it avoided.
    encode_work_uncached = stats.encode_seconds + stats.encode_seconds_saved
    joint = {
        "trainer": config.trainer,
        "n_trials": config.n_trials,
        "n_extractors": config.n_extractors,
        "trial_evaluations": evaluations,
        "trials_per_extractor": evaluations / config.n_extractors,
        "cached": {
            "wall_s": cached_wall,
            "encode_s": stats.encode_seconds,
            "hits": stats.hits,
            "misses": stats.misses,
            "hit_rate": stats.hit_rate,
            "published_bytes": stats.published_bytes,
        },
        "uncached": {
            "wall_s": uncached_wall,
            "encode_s": encode_work_uncached,
        },
        "encode_seconds_saved": stats.encode_seconds_saved,
        "encode_speedup": (
            encode_work_uncached / stats.encode_seconds
            if stats.encode_seconds > 0 else float("inf")
        ),
        "wall_speedup": (
            uncached_wall / cached_wall if cached_wall > 0 else float("inf")
        ),
        "bit_identical": identical,
    }
    return {"joint_search": joint}


#: Schema of BENCH_tune.json.  Both configurations share each extractor
#: across several trials, so a cache with zero hits did not engage.
TUNE_PAYLOAD = BenchPayload(
    format=1,
    fields={
        "joint_search.trainer": str,
        "joint_search.n_trials": int,
        "joint_search.n_extractors": int,
        "joint_search.trial_evaluations": int,
        "joint_search.trials_per_extractor": float,
        "joint_search.cached.wall_s": float,
        "joint_search.cached.encode_s": float,
        "joint_search.cached.hits": (0, float("inf")),
        "joint_search.uncached.wall_s": float,
        "joint_search.uncached.encode_s": float,
        "joint_search.encode_seconds_saved": float,
        "joint_search.encode_speedup": float,
        "joint_search.wall_speedup": float,
        "joint_search.bit_identical": bool,
    },
    show=("trial_evaluations", "trials_per_extractor", "wall_s", "encode_s",
          "hit_rate", "encode_speedup", "wall_speedup", "bit_identical"),
)
