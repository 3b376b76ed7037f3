"""Memory-bounded packing of a streamed platform into binned shared memory.

The paper-scale pipeline (1.4M × 210) cannot afford the one-shot layout —
``(n, d)`` float64 raw features (2.35 GB) *plus* a binned copy.  This
module keeps peak RSS roughly flat with row count by never holding raw
rows beyond one generator cell:

1. **Sample pass** — stream :meth:`LoanDataGenerator.generate_chunks`
   through a bounded float32 row reservoir
   (:meth:`~repro.gbdt.binning.QuantileBinner.fit_streamed`).
2. **Pack pass** — allocate one :class:`~repro.parallel.shared.SharedArrayPack`
   block (uint8 bins + labels + grouping codes, 1/8th the float64
   footprint), bin each chunk directly into it at its canonical row
   positions, then repair the edges the float32 sample rounded and the
   codes that depend on them.

The bins are stored column-major, one contiguous row per feature, and
:attr:`PackedBinnedDataset.binned` is their ``(n, d)`` transpose view.
That is the layout the GBDT's large-node histogram kernel reads, so
:meth:`GBDTClassifier.fit_binned` on the pack keeps no second copy of the
bins.  The result is exactly the binned matrix the GBDT hot path consumes,
already laid out in the zero-copy shared-memory container the parallel
engine ships to workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import EnvironmentData, group_rows
from repro.data.generator import LoanDataGenerator
from repro.gbdt.binning import QuantileBinner
from repro.gbdt.boosting import GBDTClassifier, GBDTParams, fit_holdout
from repro.gbdt.leaf_encoder import leaf_encode_environments
from repro.parallel.shared import PackSpec, SharedArrayPack

__all__ = [
    "PackedBinnedDataset",
    "pack_generated",
    "fit_extractor_encode",
]

#: Domain-separation tag of the extractor early-stopping holdout ("xenc").
_ENCODE_SPLIT_TAG = 0x78656E63


def fit_extractor_encode(
    params: GBDTParams,
    environments: list[EnvironmentData],
    *,
    holdout_fraction: float = 0.2,
    holdout_seed: int = 0,
) -> tuple[GBDTClassifier, list[EnvironmentData], float]:
    """Fit a GBDT extractor on pooled rows and leaf-encode every environment.

    The single encode path of the joint search: the cached scheduler runs
    it once per distinct extractor configuration, the uncached baseline
    once per (trial, rung) — bit-identical outputs either way, because
    everything below is a pure function of ``(params, environments,
    holdout_fraction, holdout_seed)``.

    Args:
        params: Full extractor configuration (already flat-override
            routed; see :meth:`GBDTParams.replace_flat`).
        environments: Raw per-province environments, in the order they
            should come back encoded.
        holdout_fraction: Pooled-row share held out for early stopping
            (drawn as :func:`~repro.gbdt.boosting.fit_holdout` says:
            only with ``params.early_stopping_rounds > 0`` and at least
            50 pooled rows).
        holdout_seed: Entropy of the holdout shuffle, fed through a
            tagged ``SeedSequence`` stream.

    Returns:
        ``(fitted model, encoded environments, encode_seconds)`` where
        ``encode_seconds`` covers the fit plus the leaf encoding.

    Raises:
        ValueError: When the holdout leaves no row to fit on.
    """
    started = time.perf_counter()
    features = [np.asarray(env.features) for env in environments]
    labels = np.concatenate([env.labels for env in environments])
    seed = np.random.SeedSequence([int(holdout_seed), _ENCODE_SPLIT_TAG])
    model, binned = fit_holdout(params, features, labels, holdout_fraction,
                                seed)
    bounds = np.cumsum([0] + [block.shape[0] for block in features])
    encoded = leaf_encode_environments(model, binned, (
        (env.name, slice(lo, hi), env.labels)
        for env, lo, hi in zip(environments, bounds[:-1], bounds[1:])))
    return model, encoded, time.perf_counter() - started


@dataclass
class PackedBinnedDataset:
    """Binned dataset resident in one shared-memory block.

    Attributes:
        pack: The backing :class:`SharedArrayPack` (owner side).
        binner: The fitted binner (needed to bin serving-time raw rows).
        province_names: Code → name table for ``province_codes``.
    """

    pack: SharedArrayPack
    binner: QuantileBinner
    province_names: tuple[str, ...]

    def __post_init__(self) -> None:
        self._views = self.pack.arrays()

    # --------------------------------------------------------------- views

    @property
    def binned(self) -> np.ndarray:
        """Read-only ``(n, d)`` uint8 bin-index matrix (column-major)."""
        return self._views["binned"].T

    @property
    def labels(self) -> np.ndarray:
        """Read-only ``(n,)`` float64 labels."""
        return self._views["labels"]

    @property
    def province_codes(self) -> np.ndarray:
        """Read-only ``(n,)`` int16 codes into :attr:`province_names`."""
        return self._views["province_codes"]

    @property
    def years(self) -> np.ndarray:
        return self._views["years"]

    @property
    def halves(self) -> np.ndarray:
        return self._views["halves"]

    @property
    def n_samples(self) -> int:
        return self.binned.shape[0]

    @property
    def n_features(self) -> int:
        return self.binned.shape[1]

    @property
    def nbytes(self) -> int:
        """Size of the shared block (the resident cost of the dataset)."""
        return self.pack.nbytes

    # ------------------------------------------------------------- helpers

    def province_rows(self) -> dict[str, np.ndarray]:
        """Province -> its row indices (ascending), in registry order.

        Provinces without rows are absent.
        """
        codes, rows = group_rows(self.province_codes)
        return {self.province_names[code]: r for code, r in zip(codes, rows)}

    @property
    def spec(self) -> PackSpec:
        """Picklable handle for worker-side attachment."""
        return self.pack.spec

    # ------------------------------------------------------------- cleanup

    def dispose(self) -> None:
        """Release the shared block (owner side)."""
        self.pack.dispose()

    def __enter__(self) -> "PackedBinnedDataset":
        return self

    def __exit__(self, *exc) -> None:
        self.dispose()


def pack_generated(
    generator: LoanDataGenerator,
    chunk_rows: int | None = None,
    max_bins: int = 64,
    sample_rows: int = 200_000,
    binner_seed: int = 0,
) -> PackedBinnedDataset:
    """Stream-generate, bin and pack a platform without materialising it.

    Two deterministic passes over :meth:`generate_chunks` (the generator
    re-streams identically at fixed seed): the first feeds the binner's
    float32 row reservoir, the second bins every chunk into the shared
    block at its canonical row positions and recovers the exact edges
    (:class:`~repro.gbdt.binning.StreamedFit`) — so ``packed.binned`` is
    bit-identical to ``binner.transform(generator.generate().features)``
    without the one-shot float64 matrix ever existing.

    Args:
        generator: Configured :class:`LoanDataGenerator`.
        chunk_rows: Chunk size of both streaming passes.
        max_bins: Histogram resolution (uint8 layout caps it at 256).
        sample_rows: Binner reservoir capacity — the raw-row memory bound.
        binner_seed: Reservoir RNG seed.

    Returns:
        An owning :class:`PackedBinnedDataset`; callers dispose it.

    Raises:
        ValueError: The second pass streamed different data; the shared
            block is released first.
    """
    cfg = generator.config
    n, d = cfg.n_samples, generator.schema.n_features

    streamed = QuantileBinner(max_bins=max_bins).fit_streamed(
        (chunk.features for chunk in generator.generate_chunks(chunk_rows)),
        sample_rows=sample_rows,
        seed=binner_seed,
    )

    province_names = tuple(cfg.registry.names)
    pack = SharedArrayPack.allocate(
        {
            "binned": ((d, n), "u1"),
            "labels": ((n,), "f8"),
            "province_codes": ((n,), "i2"),
            "years": ((n,), "i2"),
            "halves": ((n,), "i1"),
        },
        meta={"province_names": province_names, "max_bins": max_bins},
    )
    try:
        views = pack.writable_arrays()
        binned = views["binned"].T
        code_of = {name: i for i, name in enumerate(province_names)}
        for chunk in generator.generate_chunks(chunk_rows):
            rows = chunk.row_indices
            streamed.transform_into(chunk.features, binned, rows)
            views["labels"][rows] = chunk.labels
            views["province_codes"][rows] = code_of[chunk.province]
            views["years"][rows] = chunk.year
            views["halves"][rows] = chunk.half
        binner = streamed.finish(binned)
    except BaseException:
        pack.dispose()
        raise
    return PackedBinnedDataset(pack=pack, binner=binner,
                               province_names=province_names)
