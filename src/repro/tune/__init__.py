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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "space": (
        "SpaceError", "ParamSpec", "Uniform", "LogUniform", "Choice",
        "IntRange", "HPSpace", "JointHPSpace", "EXTRACTOR_COMPONENT",
        "default_space", "default_extractor_space",
    ),
    "asha": (
        "ASHAConfig", "run_asha", "run_joint_asha", "run_grid", "rung_budgets",
        "sample_trials", "sample_joint_trials", "select_promotions",
    ),
    "extractor_cache": (
        "CacheStats", "ExtractorEncodingCache", "environments_fingerprint",
        "extractor_fingerprint",
    ),
    "search": (
        "SUPPORTED_OBJECTIVES", "TrialResult", "RungSummary", "SearchResult",
        "load_trial_records", "split_environments",
    ),
    "leaderboard": (
        "LEADERBOARD_FORMAT", "LeaderboardError", "DirtyTreeWarning",
        "build_leaderboard", "validate_leaderboard", "ranked_trials",
        "write_leaderboard",
    ),
})
