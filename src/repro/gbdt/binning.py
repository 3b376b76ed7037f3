"""Quantile feature binning, the first stage of histogram-based GBDT.

LightGBM's speed comes from pre-discretising each feature into at most
``max_bins`` quantile buckets and then building gradient histograms over the
bucket indices instead of sorting raw values at every split.  This module
implements that discretisation: :class:`QuantileBinner` learns per-feature
bin upper edges on the training data and maps raw matrices to ``uint8``
(or ``uint16``) bin indices.

Two memory disciplines matter at paper scale (1.4M × 210):

* edges can be learned from a **streamed sample pass**
  (:meth:`QuantileBinner.fit_streamed`) — a bounded uniform reservoir of
  rows replaces the full matrix, so fitting never needs all rows resident;
* binned output can be written **directly into a caller-owned buffer**
  (:meth:`QuantileBinner.transform_into`), which is how the packed-dataset
  builder fills a shared-memory uint8 block chunk at a time.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["QuantileBinner", "ReservoirSampler"]


class ReservoirSampler:
    """Uniform without-replacement row reservoir over a stream of blocks.

    Classic Algorithm R, vectorised per block: once the reservoir is full,
    the row with global index ``t`` is accepted with probability ``k / (t +
    1)`` and overwrites a uniformly chosen slot.  Duplicate slot draws
    within one block resolve to the last write — the same outcome as
    processing the block row by row.  Deterministic given the seed and the
    block sequence.
    """

    def __init__(self, capacity: int, n_features: int, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._rng = np.random.default_rng(seed)
        self._buffer = np.empty((capacity, n_features), dtype=np.float64)
        self._seen = 0

    @property
    def n_seen(self) -> int:
        """Total rows offered so far."""
        return self._seen

    def add(self, rows: np.ndarray) -> None:
        """Offer a block of rows to the reservoir."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self._buffer.shape[1]:
            raise ValueError(
                f"expected (m, {self._buffer.shape[1]}) block, got {rows.shape}"
            )
        m = rows.shape[0]
        k = self.capacity
        filled = min(k - self._seen, m) if self._seen < k else 0
        if filled > 0:
            self._buffer[self._seen:self._seen + filled] = rows[:filled]
        rest = rows[filled:]
        if rest.shape[0]:
            t = self._seen + filled + np.arange(rest.shape[0])
            accept = self._rng.random(rest.shape[0]) < k / (t + 1.0)
            n_accept = int(accept.sum())
            if n_accept:
                slots = self._rng.integers(0, k, size=n_accept)
                self._buffer[slots] = rest[accept]
        self._seen += m

    def sample(self) -> np.ndarray:
        """The current reservoir contents (rows seen if under capacity)."""
        return self._buffer[: min(self._seen, self.capacity)]


class QuantileBinner:
    """Per-feature quantile discretiser.

    Fit on the training matrix; transform maps each value to the index of
    the first bin whose upper edge is >= the value.  Values beyond the last
    learned edge fall into the final bin, so unseen test values never raise.

    Attributes:
        max_bins: Upper bound on bins per feature (including the overflow
            bin).  Must fit the chosen integer dtype.
        bin_edges_: After fitting, list (per feature) of strictly increasing
            upper edges; feature ``f`` has ``len(bin_edges_[f]) + 1`` bins.
    """

    def __init__(self, max_bins: int = 64):
        if not 2 <= max_bins <= 256:
            raise ValueError(f"max_bins must be in [2, 256], got {max_bins}")
        self.max_bins = max_bins
        self.bin_edges_: list[np.ndarray] | None = None

    @property
    def is_fitted(self) -> bool:
        return self.bin_edges_ is not None

    def fit(self, features: np.ndarray) -> "QuantileBinner":
        """Learn bin edges from the training feature matrix.

        Args:
            features: Dense float matrix ``(n, d)``; all values finite.

        Returns:
            self.
        """
        features = self._check_matrix(features)
        edges: list[np.ndarray] = []
        quantiles = np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1]
        for f in range(features.shape[1]):
            column = features[:, f]
            # method="lower" keeps candidates on observed values, so columns
            # with few distinct values get exactly that many bins instead of
            # interpolated pseudo-edges.
            candidate = np.unique(
                np.quantile(column, quantiles, method="lower")
            )
            # Degenerate (constant) columns get a single bin: no edges.
            if candidate.size and candidate[0] == candidate[-1]:
                candidate = candidate[:1]
                if column.min() == column.max():
                    candidate = np.empty(0)
            edges.append(candidate.astype(np.float64))
        self.bin_edges_ = edges
        return self

    def fit_streamed(
        self,
        blocks: Iterable[np.ndarray],
        sample_rows: int = 200_000,
        seed: int = 0,
    ) -> "QuantileBinner":
        """Learn bin edges from a stream of row blocks with bounded memory.

        A uniform row reservoir of at most ``sample_rows`` rows stands in
        for the full matrix; when the stream holds fewer rows than the
        reservoir, the fit is exactly :meth:`fit` on the concatenated
        stream.  Quantile-bin edges are order statistics, so a uniform row
        sample estimates them without any per-feature state.

        Args:
            blocks: Iterable of ``(m_i, d)`` float blocks (e.g.
                ``chunk.features`` from a streamed generator).
            sample_rows: Reservoir capacity — the memory bound.
            seed: Reservoir RNG seed (deterministic given the stream).

        Returns:
            self.
        """
        sampler: ReservoirSampler | None = None
        for block in blocks:
            block = self._check_matrix(block)
            if sampler is None:
                sampler = ReservoirSampler(sample_rows, block.shape[1],
                                           seed=seed)
            sampler.add(block)
        if sampler is None or sampler.n_seen == 0:
            raise ValueError("cannot fit a binner on an empty stream")
        return self.fit(sampler.sample())

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Map raw features to bin indices.

        Args:
            features: Dense float matrix with the fitted column count.

        Returns:
            ``uint8`` matrix of bin indices, same shape as the input.
        """
        features = self._check_transform_input(features)
        binned = np.empty(features.shape, dtype=np.uint8)
        for f, edges in enumerate(self.bin_edges_):
            binned[:, f] = np.searchsorted(edges, features[:, f], side="left")
        return binned

    def transform_into(
        self,
        features: np.ndarray,
        out: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> None:
        """Bin ``features`` directly into a caller-owned uint8 buffer.

        The streamed packing path owns one preallocated ``(n, d)`` block
        (typically shared memory) and fills it chunk at a time; this
        variant writes each chunk in place instead of allocating a binned
        copy per call.

        Args:
            features: Raw ``(m, d)`` block to bin.
            out: ``(n, d)`` uint8 destination.
            rows: Destination row indices (``(m,)``); ``None`` requires
                ``m == n`` and writes rows in order.
        """
        features = self._check_transform_input(features)
        if out.dtype != np.uint8 or out.ndim != 2:
            raise ValueError("out must be a 2-D uint8 buffer")
        if out.shape[1] != features.shape[1]:
            raise ValueError("out and features disagree on column count")
        if rows is None and out.shape[0] != features.shape[0]:
            raise ValueError("out and features disagree on row count")
        for f, edges in enumerate(self.bin_edges_):
            column = np.searchsorted(edges, features[:, f], side="left")
            if rows is None:
                out[:, f] = column
            else:
                out[rows, f] = column

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        """Fit on ``features`` then transform them."""
        return self.fit(features).transform(features)

    def n_bins(self, feature: int) -> int:
        """Number of occupied bins for one feature after fitting."""
        if self.bin_edges_ is None:
            raise RuntimeError("binner is not fitted")
        return len(self.bin_edges_[feature]) + 1

    def bin_upper_value(self, feature: int, bin_index: int) -> float:
        """Raw-value upper edge of a bin (``inf`` for the overflow bin)."""
        if self.bin_edges_ is None:
            raise RuntimeError("binner is not fitted")
        edges = self.bin_edges_[feature]
        if bin_index >= len(edges):
            return float("inf")
        return float(edges[bin_index])

    def _check_transform_input(self, features: np.ndarray) -> np.ndarray:
        if self.bin_edges_ is None:
            raise RuntimeError("binner is not fitted")
        features = self._check_matrix(features)
        if features.shape[1] != len(self.bin_edges_):
            raise ValueError(
                f"expected {len(self.bin_edges_)} features, got {features.shape[1]}"
            )
        return features

    @staticmethod
    def _check_matrix(features: np.ndarray) -> np.ndarray:
        # No forced float64 copy: float32 inputs (the reduced-precision
        # hot path) and float64 inputs pass through untouched; only
        # non-float dtypes are upcast.  searchsorted handles the
        # edge/value dtype mix per column.
        features = np.asarray(features)
        if features.dtype not in (np.float32, np.float64):
            features = features.astype(np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        # Two reductions, no (n, d) bool mask: NaN propagates through
        # both, and +inf/-inf surface in max/min respectively.
        if features.size and not (
            np.isfinite(features.min()) and np.isfinite(features.max())
        ):
            raise ValueError("features must be finite")
        return features
