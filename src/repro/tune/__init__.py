"""Hyper-parameter search: typed spaces, ASHA scheduling, leaderboards.

The subsystem in one sentence: declare *what* to search with a typed
:class:`HPSpace` (validated against the owning component's config
surface), let :func:`run_asha` fan trials across the parallel engine on
per-trial ``SeedSequence`` streams (bit-reproducible at any ``--jobs``,
resumable from the obs run log), and read the answer off a
schema-validated leaderboard.

Joint GBDT×head searches pair an extractor space with a head space
(:meth:`HPSpace.joint`) and run through :func:`run_joint_asha`, where
the content-addressed :class:`ExtractorEncodingCache` fits + leaf-
encodes each distinct extractor configuration exactly once and head
trials attach the published shared-memory encodings read-only.

Exhaustive searches over an enumerable space run through :func:`run_grid`,
the degenerate single-rung schedule of the same scheduler.
"""

from repro.tune.asha import (
    ASHAConfig,
    run_asha,
    run_grid,
    run_joint_asha,
    rung_budgets,
    sample_joint_trials,
    sample_trials,
    select_promotions,
)
from repro.tune.buffer import ResultBuffer, TrialRecord, load_trial_records
from repro.tune.extractor_cache import (
    CacheStats,
    ExtractorEncodingCache,
    environments_fingerprint,
    extractor_fingerprint,
)
from repro.tune.leaderboard import (
    LEADERBOARD_FORMAT,
    DirtyTreeWarning,
    LeaderboardError,
    build_leaderboard,
    ranked_trials,
    validate_leaderboard,
    write_leaderboard,
)
from repro.tune.search import (
    SUPPORTED_OBJECTIVES,
    RungSummary,
    SearchResult,
    TrialResult,
    split_environments,
)
from repro.tune.space import (
    EXTRACTOR_COMPONENT,
    Choice,
    HPSpace,
    IntRange,
    JointHPSpace,
    LogUniform,
    ParamSpec,
    SpaceError,
    Uniform,
    component_fields,
    default_extractor_space,
    default_space,
    register_space,
)

__all__ = [
    # spaces
    "SpaceError",
    "ParamSpec",
    "Uniform",
    "LogUniform",
    "Choice",
    "IntRange",
    "HPSpace",
    "JointHPSpace",
    "EXTRACTOR_COMPONENT",
    "component_fields",
    "default_space",
    "default_extractor_space",
    "register_space",
    # scheduler
    "ASHAConfig",
    "run_asha",
    "run_joint_asha",
    "run_grid",
    "rung_budgets",
    "sample_trials",
    "sample_joint_trials",
    "select_promotions",
    # extractor-encoding cache
    "CacheStats",
    "ExtractorEncodingCache",
    "environments_fingerprint",
    "extractor_fingerprint",
    # results
    "SUPPORTED_OBJECTIVES",
    "TrialResult",
    "RungSummary",
    "SearchResult",
    "split_environments",
    # persistence
    "ResultBuffer",
    "TrialRecord",
    "load_trial_records",
    "LEADERBOARD_FORMAT",
    "LeaderboardError",
    "DirtyTreeWarning",
    "build_leaderboard",
    "validate_leaderboard",
    "ranked_trials",
    "write_leaderboard",
]
