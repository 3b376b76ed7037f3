"""Content-addressed shared-memory cache of fitted-GBDT leaf encodings.

A joint GBDT×head search evaluates many (extractor, head) pairs, but the
expensive half — fitting the GBDT and leaf-encoding every environment —
depends only on the extractor configuration, the data and the split
seed.  This module turns that observation into the search's core
optimisation: encodings are *content-addressed* by
:func:`extractor_fingerprint` (a sha256 over the canonical full GBDT
configuration, the raw-environment fingerprint, the split seed and the
validation fraction), fitted **exactly once per distinct fingerprint**
(the encode batch itself fans over the
:class:`~repro.parallel.engine.ParallelEngine`), and published as
immutable :class:`~repro.parallel.shared.SharedArrayPack` blocks that
head trials attach read-only.

Cost accounting is part of the contract: every per-trial lookup emits a
``tune_cache`` run-log event (hit or miss), every publish its own
event, and :class:`CacheStats` aggregates hit-rate, published bytes,
encode seconds spent and encode seconds *saved* — the numbers
``BENCH_tune.json`` and the observability report surface.

Correctness is anchored on purity, not on the cache: the encode path is
:func:`~repro.gbdt.packing.fit_extractor_encode` followed by
:func:`~repro.tune.search.split_environments`, the same pipeline an
uncached trial runs inline — so a cached attach and a fresh encode are
bit-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.data.dataset import EnvironmentData
from repro.gbdt.leaf_encoder import LeafDesign
from repro.obs.runlog import TUNE_CACHE_EVENT, TUNE_ENCODE_SPAN
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.engine import ParallelEngine
from repro.parallel.shared import PackSpec, SharedArrayPack, pack_train_test
from repro.parallel.worker import (
    EncodeOutcome,
    EncodeTask,
    init_experiment_worker,
    run_encode_task,
)

__all__ = [
    "CacheStats",
    "ExtractorEncodingCache",
    "environments_fingerprint",
    "extractor_fingerprint",
]


def _hash_array(digest, array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    digest.update(str(array.shape).encode())
    digest.update(str(array.dtype).encode())
    digest.update(array.tobytes())


def environments_fingerprint(
    environments: Sequence[EnvironmentData],
) -> str:
    """Stable content fingerprint of an environment list.

    Hashes names, shapes and raw bytes of the feature and label arrays
    (a :class:`~repro.gbdt.leaf_encoder.LeafDesign` by its column ids
    and width), so byte-identical data shares a fingerprint across runs
    regardless of how it was loaded.  Truncated to 16 hex chars —
    change detection, not collision resistance.
    """
    digest = hashlib.sha256()
    for env in environments:
        digest.update(env.name.encode("utf-8"))
        features = env.features
        if isinstance(features, LeafDesign):
            digest.update(f"leaf design of {features.n_columns}".encode())
            features = features.columns
        _hash_array(digest, np.asarray(features))
        _hash_array(digest, np.asarray(env.labels))
    return digest.hexdigest()[:16]


def extractor_fingerprint(
    extractor_params: Mapping[str, object],
    data_fingerprint: str,
    split_seed: int,
    validation_fraction: float,
) -> str:
    """Content address of one extractor encoding.

    The flat overrides are first resolved onto the *full* default GBDT
    configuration (:meth:`~repro.gbdt.boosting.GBDTParams.canonical`), so
    two spellings of the same effective configuration — e.g. an explicit
    default vs an omitted field — share an address, and any future
    default change automatically invalidates old addresses.
    """
    from repro.pipeline.extractor import default_gbdt_params

    params = default_gbdt_params().replace_flat(extractor_params)
    payload = {
        "extractor": params.canonical(),
        "data": data_fingerprint,
        "split_seed": int(split_seed),
        "validation_fraction": float(validation_fraction),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class CacheStats:
    """Aggregated cost accounting of one search's encoding cache.

    Attributes:
        hits: Trial evaluations that attached an already-scheduled
            encoding (including siblings of the trial that triggered it
            within the same rung — each such trial skipped one encode).
        misses: Trial evaluations whose fingerprint had to be encoded.
        encode_seconds: Wall-clock spent fitting + leaf-encoding across
            all distinct configurations (sum over workers).
        encode_seconds_saved: Wall-clock the hits would have spent
            re-encoding — each hit saves one encode of its fingerprint's
            measured cost.
        published_bytes: Total bytes of every pack published (all of
            them stay resident until the search ends).
    """

    hits: int = 0
    misses: int = 0
    encode_seconds: float = 0.0
    encode_seconds_saved: float = 0.0
    published_bytes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_json(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "encode_seconds": self.encode_seconds,
            "encode_seconds_saved": self.encode_seconds_saved,
            "published_bytes": self.published_bytes,
        }


class ExtractorEncodingCache:
    """Encode-once / attach-many store of extractor leaf encodings.

    Owned by the joint scheduler, one instance per search.  Per rung the
    scheduler calls :meth:`prepare` with every pending trial's extractor
    configuration: distinct missing fingerprints are fitted + encoded as
    one engine batch and published as immutable packs; the returned spec
    table lets each trial attach read-only.  Packs stay published until
    :meth:`dispose` ends the search.  Trials share ``n_extractors``
    configurations round-robin
    (:func:`~repro.tune.asha.sample_joint_trials`), so at most that many
    packs are ever resident.

    Args:
        raw_environments: The raw per-province environments every
            encoding derives from (fingerprinted once at construction).
        validation_fraction: Fit/validation row split of encoded rows.
        split_seed: Entropy of that split and each extractor's
            early-stopping holdout.
        tracer: Run tracer for ``tune_cache`` events and encode spans.
    """

    def __init__(
        self,
        raw_environments: Sequence[EnvironmentData],
        *,
        validation_fraction: float,
        split_seed: int,
        tracer: Tracer = NULL_TRACER,
    ):
        self.validation_fraction = float(validation_fraction)
        self.split_seed = int(split_seed)
        self.data_fingerprint = environments_fingerprint(raw_environments)
        self.stats = CacheStats()
        self._packs: dict[str, SharedArrayPack] = {}
        self._encode_seconds: dict[str, float] = {}
        self._tracer = tracer

    def fingerprint(self, extractor_params: Mapping[str, object]) -> str:
        """Content address of one extractor configuration on this data."""
        return extractor_fingerprint(
            extractor_params,
            self.data_fingerprint,
            self.split_seed,
            self.validation_fraction,
        )

    # ------------------------------------------------------------- rung API

    def prepare(
        self,
        trial_fingerprints: Sequence[str],
        params_by_fingerprint: Mapping[str, Mapping[str, object]],
        engine: ParallelEngine,
        raw_spec: PackSpec,
    ) -> dict[str, PackSpec]:
        """Make every fingerprint attachable, encoding each at most once.

        Args:
            trial_fingerprints: One entry per pending trial (duplicates
                expected — they are what the cache amortises).
            params_by_fingerprint: Flat extractor overrides per distinct
                fingerprint.
            engine: Engine the encode batch fans over.
            raw_spec: Spec of the raw-environment pack encode workers
                attach (the ``"raw"`` prefix).

        Returns:
            Fingerprint → spec of its published pack.
        """
        missing = [fp for fp in dict.fromkeys(trial_fingerprints)
                   if fp not in self._packs]
        if missing:
            with self._tracer.span(
                TUNE_ENCODE_SPAN,
                n_configs=len(missing),
                fingerprints=list(missing),
            ):
                tasks = [
                    EncodeTask(
                        fingerprint=fp,
                        extractor_params=dict(params_by_fingerprint[fp]),
                        validation_fraction=self.validation_fraction,
                        split_seed=self.split_seed,
                    )
                    for fp in missing
                ]
                outcomes = engine.map(
                    run_encode_task,
                    tasks,
                    initializer=init_experiment_worker,
                    initargs=(raw_spec,),
                )
            for outcome in outcomes:
                self._publish(outcome)
        # Per-trial accounting: the first trial of each missing
        # fingerprint paid for the encode, every other trial saved one.
        first_of = set(missing)
        for fp in trial_fingerprints:
            if fp in first_of:
                first_of.discard(fp)
                self.stats.misses += 1
                self._tracer.event(TUNE_CACHE_EVENT, fingerprint=fp,
                                   action="miss")
            else:
                self.stats.hits += 1
                self.stats.encode_seconds_saved += self._encode_seconds[fp]
                self._tracer.event(TUNE_CACHE_EVENT, fingerprint=fp,
                                   action="hit")
        return {fp: self._packs[fp].spec
                for fp in dict.fromkeys(trial_fingerprints)}

    # ------------------------------------------------------------ internals

    def _publish(self, outcome: EncodeOutcome) -> None:
        pack = pack_train_test(outcome.fit_environments,
                               outcome.valid_environments)
        self._packs[outcome.fingerprint] = pack
        self._encode_seconds[outcome.fingerprint] = outcome.encode_seconds
        self.stats.encode_seconds += outcome.encode_seconds
        self.stats.published_bytes += pack.nbytes
        self._tracer.event(
            TUNE_CACHE_EVENT,
            fingerprint=outcome.fingerprint,
            action="publish",
            nbytes=pack.nbytes,
            encode_seconds=outcome.encode_seconds,
        )

    # ------------------------------------------------------------- cleanup

    def dispose(self) -> None:
        """Unlink every published pack (end of search)."""
        for pack in self._packs.values():
            pack.dispose()
        self._packs.clear()
