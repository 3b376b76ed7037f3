"""The tracked ``TUNE_leaderboard.json`` artifact.

One leaderboard aggregates the :class:`~repro.tune.search.SearchResult`
of every trainer searched in one ``repro tune`` invocation: a global
trial ranking, per-search rung histories, and the provenance needed to
reproduce it (objective, search seed, ASHA knobs, machine, git).

Two invariants the schema is built around:

* **Determinism** — everything except wall-clock fields is a pure
  function of (spaces, knobs, seed, data), so
  :func:`ranked_trials` (the payload minus ``train_seconds`` and
  timestamps) is bit-identical across ``--jobs`` levels and across
  resume; CI diffs exactly that projection.
* **Validity** — :func:`validate_leaderboard` is the single source of
  truth for required keys, mirroring the run-log's
  :func:`~repro.obs.runlog.validate_record`; CI gates artifact upload
  on it.
"""

from __future__ import annotations

import json
import pathlib
import time
import warnings
from typing import Sequence

from repro.obs.runlog import git_describe
from repro.tune.search import SearchResult

__all__ = [
    "LEADERBOARD_FORMAT",
    "LeaderboardError",
    "DirtyTreeWarning",
    "build_leaderboard",
    "validate_leaderboard",
    "ranked_trials",
    "write_leaderboard",
]

#: Version of the leaderboard payload schema written by this module.
#: v2 (over v1): every entry carries a ``search_cost`` object
#: (``train_seconds``, ``encode_seconds``, ``encode_cached`` — the joint
#: search's cost accounting); wall-clock members of it are stripped by
#: :func:`ranked_trials` exactly as ``train_seconds`` always was.
LEADERBOARD_FORMAT = 2

#: Required keys of the payload and of each global leaderboard entry.
_REQUIRED_TOP = (
    "format", "kind", "created_unix", "objective", "blend_weight",
    "seed", "search_config", "machine", "git", "searches", "leaderboard",
)
_REQUIRED_ENTRY = (
    "rank", "trainer", "trial", "objective_value", "params", "seed",
    "rung", "budget", "metrics", "search_cost",
)
_REQUIRED_SEARCH = ("trainer", "objective", "blend_weight", "rungs", "trials")


class LeaderboardError(ValueError):
    """A leaderboard payload violates the documented schema."""


class DirtyTreeWarning(UserWarning):
    """A tracked artifact is being stamped from a dirty git tree.

    A leaderboard whose ``git`` field ends in ``-dirty`` cannot be
    reproduced from any commit — the tree that produced it was never
    recorded.  CI turns this warning into an error
    (``-W error::repro.tune.leaderboard.DirtyTreeWarning``)."""


def build_leaderboard(
    results: Sequence[SearchResult],
    *,
    seed: int,
    search_config: dict | None = None,
    machine: dict | None = None,
) -> dict:
    """Aggregate per-trainer search results into one leaderboard payload.

    The global ranking uses :meth:`SearchResult.ranked`'s key
    (:meth:`~repro.tune.search.TrialResult.rank_key`) — deepest rung
    reached, then objective value, then (trainer, trial id) as a
    deterministic tiebreak — so cross-trainer comparisons only ever
    favour trials that survived to comparable budgets.

    Args:
        results: One :class:`SearchResult` per searched trainer; all are
            expected to share objective and blend weight (the first's
            values are recorded as the payload's).
        seed: Root search seed (provenance).
        search_config: JSON-compatible ASHA/grid knobs (provenance).
        machine: Hardware/software context; defaults to
            :func:`repro.perfbench.machine_info`.

    Raises:
        ValueError: On an empty result list.
    """
    if not results:
        raise ValueError("build_leaderboard needs at least one SearchResult")
    if machine is None:
        from repro.perfbench.payload import machine_info

        machine = machine_info()
    return {
        "format": LEADERBOARD_FORMAT,
        "kind": "tune_leaderboard",
        "created_unix": time.time(),
        "objective": results[0].objective,
        "blend_weight": results[0].blend_weight,
        "seed": int(seed),
        "search_config": dict(search_config or {}),
        "machine": dict(machine),
        "git": git_describe(),
        "searches": [result.to_json() for result in results],
        "leaderboard": _ranked_entries(results),
    }


def validate_leaderboard(payload: object) -> dict:
    """Check a leaderboard payload against the schema; returns it.

    Raises:
        LeaderboardError: On missing keys, a wrong ``kind``/``format``,
            non-contiguous ranks or malformed entries.
    """
    if not isinstance(payload, dict):
        raise LeaderboardError("leaderboard payload is not a JSON object")
    missing = [k for k in _REQUIRED_TOP if k not in payload]
    if missing:
        raise LeaderboardError(f"payload is missing keys {missing}")
    if payload["kind"] != "tune_leaderboard":
        raise LeaderboardError(
            f"payload kind is {payload['kind']!r}, "
            "expected 'tune_leaderboard'"
        )
    if payload["format"] != LEADERBOARD_FORMAT:
        raise LeaderboardError(
            f"payload format {payload['format']!r} != {LEADERBOARD_FORMAT}"
        )
    if not isinstance(payload["searches"], list) or not payload["searches"]:
        raise LeaderboardError("payload 'searches' must be a non-empty list")
    for index, search in enumerate(payload["searches"]):
        if not isinstance(search, dict):
            raise LeaderboardError(f"search {index} is not an object")
        search_missing = [k for k in _REQUIRED_SEARCH if k not in search]
        if search_missing:
            raise LeaderboardError(
                f"search {index} is missing keys {search_missing}"
            )
    entries = payload["leaderboard"]
    if not isinstance(entries, list) or not entries:
        raise LeaderboardError("payload 'leaderboard' must be a non-empty list")
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise LeaderboardError(f"leaderboard entry {index} is not an object")
        entry_missing = [k for k in _REQUIRED_ENTRY if k not in entry]
        if entry_missing:
            raise LeaderboardError(
                f"leaderboard entry {index} is missing keys {entry_missing}"
            )
    ranks = [entry["rank"] for entry in entries]
    if ranks != list(range(1, len(entries) + 1)):
        raise LeaderboardError(
            f"leaderboard ranks must be 1..{len(entries)}, got {ranks}"
        )
    return payload


def _ranked_entries(results: Sequence[SearchResult]) -> list[dict]:
    """The global leaderboard entries of every trial, best first."""
    pairs = sorted(
        ((trial, result) for result in results for trial in result.trials),
        key=lambda pair: pair[0].rank_key(pair[1].objective,
                                          pair[1].blend_weight),
    )
    return [
        {
            "rank": rank,
            "trainer": trial.trainer,
            "objective_value": trial.objective_value(result.objective,
                                                     result.blend_weight),
            **trial.to_json(),
        }
        for rank, (trial, result) in enumerate(pairs, start=1)
    ]


def ranked_trials(source: dict | Sequence[SearchResult]) -> list[dict]:
    """The deterministic projection of a leaderboard: its global ranking
    minus wall-clock fields.

    This is what "bit-identical" means for a search: two payloads from
    the same (spaces, knobs, seed, data) — whatever ``--jobs`` level,
    cached or uncached joint encoding, with or without a resume — agree
    exactly on this list, while ``train_seconds`` / ``search_cost`` /
    ``created_unix`` / ``machine`` may differ.

    Args:
        source: A leaderboard payload, or the search results one would
            be built from (no machine or git stamp needed).
    """
    entries = (source["leaderboard"] if isinstance(source, dict)
               else _ranked_entries(source))
    return [
        {k: v for k, v in entry.items()
         if k not in ("train_seconds", "search_cost")}
        for entry in entries
    ]


def write_leaderboard(payload: dict, path: str | pathlib.Path) -> dict:
    """Validate and write the tracked leaderboard JSON; returns payload.

    A dirty git stamp warns with :class:`DirtyTreeWarning` and is still
    written.

    Args:
        payload: A :func:`build_leaderboard` payload.
        path: Destination file.

    Raises:
        LeaderboardError: On schema violations.
    """
    validate_leaderboard(payload)
    git = payload.get("git")
    if isinstance(git, str) and git.endswith("-dirty"):
        warnings.warn(
            f"stamping leaderboard {pathlib.Path(path).name} from a dirty "
            f"git tree ({git}): the payload cannot be reproduced from any "
            "commit — commit (or stash) before regenerating tracked "
            "artifacts",
            DirtyTreeWarning, stacklevel=2,
        )
    target = pathlib.Path(path)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    return payload
