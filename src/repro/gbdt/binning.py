"""Quantile feature binning, the first stage of histogram-based GBDT.

LightGBM's speed comes from pre-discretising each feature into at most
``max_bins`` quantile buckets and then building gradient histograms over the
bucket indices instead of sorting raw values at every split.  This module
implements that discretisation: :class:`QuantileBinner` learns per-feature
bin upper edges on the training data and maps raw matrices to ``uint8``
(or ``uint16``) bin indices.

Two memory disciplines matter at paper scale (1.4M × 210):

* edges can be learned from a **stream read twice**
  (:meth:`QuantileBinner.fit_streamed`) — a bounded uniform reservoir of
  float32 rows replaces the full matrix, and the second pass, which bins
  the stream anyway, recovers the exact float64 edges the float32 sample
  rounded (:class:`StreamedFit`);
* the second pass writes binned output **directly into a caller-owned
  buffer** (:meth:`StreamedFit.transform_into`), which is how the
  packed-dataset builder fills a shared-memory uint8 block chunk at a
  time.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.numerics import check_finite

__all__ = ["QuantileBinner", "ReservoirSampler", "StreamedFit"]

_EMPTY = "cannot fit a binner on zero rows"
_CHANGED = "stream changed between passes"


def _target_quantiles(max_bins: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, max_bins + 1)[1:-1]


def _edge_rule(ranked: np.ndarray, constant: bool) -> np.ndarray:
    """Bin edges of one column from its values at the target ranks.

    Args:
        ranked: The column's order statistics at the target quantiles.
        constant: Whether every value of the column is equal.

    Returns:
        Strictly increasing float64 upper edges.
    """
    candidate = np.unique(ranked)
    # Degenerate (constant) columns get a single bin: no edges.
    if candidate.size and candidate[0] == candidate[-1]:
        candidate = candidate[:1]
        if constant:
            candidate = np.empty(0)
    return candidate.astype(np.float64)


class ReservoirSampler:
    """Uniform without-replacement row reservoir over a stream of blocks.

    Classic Algorithm R, vectorised per block: once the reservoir is full,
    the row with global index ``t`` is accepted with probability ``k / (t +
    1)`` and overwrites a uniformly chosen slot.  Duplicate slot draws
    within one block resolve to the last write — the same outcome as
    processing the block row by row.  Deterministic given the seed and the
    block sequence.

    Rows are kept as float32 (half the float64 footprint) next to each
    slot's stream position.  :attr:`inexact` flags the columns where a
    value that entered the sample is not exactly a float32, so a caller
    knows which columns' order statistics the rounding may have moved.
    """

    def __init__(self, capacity: int, n_features: int, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._rng = np.random.default_rng(seed)
        self._values = np.empty((capacity, n_features), dtype=np.float32)
        self._positions = np.empty(capacity, dtype=np.int64)
        self._inexact = np.zeros(n_features, dtype=bool)
        self._seen = 0

    @property
    def n_seen(self) -> int:
        """Total rows offered so far."""
        return self._seen

    @property
    def inexact(self) -> np.ndarray:
        """``(d,)`` flags: a value of the column that entered the sample
        is not exactly a float32."""
        return self._inexact

    def add(self, rows: np.ndarray) -> None:
        """Offer a block of rows to the reservoir."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self._values.shape[1]:
            raise ValueError(
                f"expected (m, {self._values.shape[1]}) block, got {rows.shape}"
            )
        m = rows.shape[0]
        k = self.capacity
        filled = min(k - self._seen, m) if self._seen < k else 0
        if filled > 0:
            self._store(slice(self._seen, self._seen + filled),
                        self._seen + np.arange(filled), rows[:filled])
        rest = rows[filled:]
        if rest.shape[0]:
            t = self._seen + filled + np.arange(rest.shape[0])
            accept = self._rng.random(rest.shape[0]) < k / (t + 1.0)
            n_accept = int(accept.sum())
            if n_accept:
                slots = self._rng.integers(0, k, size=n_accept)
                self._store(slots, t[accept], rest[accept])
        self._seen += m

    def _store(self, slots, positions: np.ndarray, rows: np.ndarray) -> None:
        # Values beyond float32 range become ±inf: flagged inexact below,
        # so the cast's overflow is expected, not an error.
        with np.errstate(over="ignore"):
            values = rows.astype(np.float32)
        self._inexact |= (values != rows).any(axis=0)
        self._values[slots] = values
        self._positions[slots] = positions

    def sample(self) -> tuple[np.ndarray, np.ndarray]:
        """The reservoir's float32 rows and their stream positions.

        Returns:
            ``(values, positions)``: ``(k, d)`` float32 rows and ``(k,)``
            distinct int64 stream positions, ``k = min(n_seen, capacity)``
            (every row seen, in order, when under capacity).
        """
        k = min(self._seen, self.capacity)
        return self._values[:k], self._positions[:k]


class StreamedFit:
    """Exact quantile edges of a block stream that is read twice.

    Built by :meth:`QuantileBinner.fit_streamed`, which runs the **sample
    pass**: a float32 :class:`ReservoirSampler` over the stream, then one
    sort per column.  A column whose sampled values are all float32 gets
    its final edges there.  Every other column keeps *brackets*: the
    distinct float32 values at the target ranks, each with the count of
    sampled values below and equal to it.  Rounding to float32 is
    monotone, so the float64 order statistic at rank ``r`` is the
    ``(r - below)``-th smallest sampled value of its bracket.  The sample
    is freed before the second pass.

    The **pack pass** (:meth:`transform_into`, once per block of the same
    stream) bins exact columns as :class:`QuantileBinner` does and
    bracketed columns by their float32 value against the brackets.  It
    records the cells whose float32 value equals a bracket: their float64
    value, destination and whether the row was sampled.

    :meth:`finish` sorts each bracket's sampled values, reads the exact
    edges off them, remaps the provisional codes and re-bins the recorded
    cells, so the binned matrix and the edges equal :meth:`QuantileBinner.fit`
    on the float64 rows at the sampled stream positions.
    """

    #: Cells (rows × columns) per pack-pass column block: bounds the
    #: float32 copy and bracket lookup of a block to 256 KiB each.
    _BLOCK_CELLS = 1 << 16

    def __init__(self, binner: "QuantileBinner", blocks: Iterable[np.ndarray],
                 sample_rows: int, seed: int):
        sampler: ReservoirSampler | None = None
        for block in blocks:
            block = binner._check_matrix(block)
            if sampler is None:
                sampler = ReservoirSampler(sample_rows, block.shape[1],
                                           seed=seed)
            sampler.add(block)
        if sampler is None or sampler.n_seen == 0:
            raise ValueError(_EMPTY)
        values, positions = sampler.sample()
        k, d = values.shape
        self._binner = binner
        self._sampled = np.zeros(sampler.n_seen, dtype=bool)
        self._sampled[positions] = True
        self._packed = 0
        # The indices np.quantile(column, q, method="lower") reads.
        self._ranks = np.quantile(
            np.arange(k), _target_quantiles(binner.max_bins), method="lower"
        )
        # Per column: final edges, or None while the column is bracketed.
        self._edges: list[np.ndarray | None] = [None] * d
        self._brackets: list[np.ndarray | None] = [None] * d
        self._rank_brackets: list[np.ndarray | None] = [None] * d
        # NaN pads the table: it equals nothing, not even a value that
        # rounded to ±inf.  Exact columns' rows stay all NaN.
        self._table = np.full((d, binner.max_bins), np.nan, dtype=np.float32)
        below, equal = [], []
        for f in range(d):
            column = np.sort(values[:, f])
            at_ranks = column[self._ranks]
            if not sampler.inexact[f]:
                self._edges[f] = _edge_rule(at_ranks.astype(np.float64),
                                            column[0] == column[-1])
                continue
            brackets = np.unique(at_ranks)
            lower = np.searchsorted(column, brackets, side="left")
            below.append(lower)
            equal.append(np.searchsorted(column, brackets, side="right")
                         - lower)
            self._brackets[f] = brackets
            self._rank_brackets[f] = np.searchsorted(brackets, at_ranks)
            self._table[f, :brackets.size] = brackets
        del values, positions, sampler
        self._columns = [f for f in range(d) if self._edges[f] is None]
        # Global bracket ids: column f owns ids offset[f]:offset[f + 1].
        self._offset = np.concatenate(([0], np.cumsum(
            [0 if b is None else b.size for b in self._brackets])))
        self._below = np.concatenate(below) if below else None
        self._equal = np.concatenate(equal) if equal else None
        self._recorded: list[tuple[np.ndarray, ...]] = []

    def transform_into(self, features: np.ndarray, out: np.ndarray,
                       rows: np.ndarray) -> None:
        """Pack pass: bin the stream's next block into ``out[rows]``.

        Args:
            features: The next ``(m, d)`` block, in sample-pass order.
            out: ``(n, d)`` uint8 destination.
            rows: ``(m,)`` destination row indices.
        """
        features = self._binner._check_matrix(features)
        d = len(self._edges)
        if features.shape[1] != d:
            raise ValueError(f"expected {d} features, got {features.shape[1]}")
        if out.dtype != np.uint8 or out.ndim != 2 or out.shape[1] != d:
            raise ValueError(f"out must be an (n, {d}) uint8 buffer")
        m = features.shape[0]
        start = self._packed
        self._packed += m
        if self._packed > self._sampled.size:
            raise ValueError(f"{_CHANGED}: more than the "
                             f"{self._sampled.size} sampled rows packed")
        codes = np.empty((d, m), dtype=np.uint8)
        # Cells whose float32 value equals a bracket: only their float64
        # value orders them against the bracket's exact edges.
        hits = np.empty((d, m), dtype=bool)
        width = max(1, self._BLOCK_CELLS // max(m, 1))
        for lo in range(0, d, width):
            hi = min(lo + width, d)
            with np.errstate(over="ignore"):
                rounded = features[:, lo:hi].T.astype(np.float32, order="C")
            for f in range(lo, hi):
                if self._edges[f] is None:
                    codes[f] = np.searchsorted(self._brackets[f],
                                               rounded[f - lo])
                else:
                    codes[f] = np.searchsorted(self._edges[f], features[:, f])
            np.equal(np.take_along_axis(self._table[lo:hi], codes[lo:hi], 1),
                     rounded, out=hits[lo:hi])
        column, row = np.nonzero(hits)
        if column.size:
            self._recorded.append((
                rows[row], column, features[row, column],
                self._offset[column] + codes[column, row],
                self._sampled[start + row],
            ))
        out[rows] = codes.T

    def finish(self, out: np.ndarray) -> "QuantileBinner":
        """Repair the edges and ``out`` after the pack pass.

        Args:
            out: The buffer every block was binned into.

        Returns:
            The fitted binner.

        Raises:
            ValueError: The pack pass did not re-stream the sampled
                stream (its length or a sampled bracket's count differs).
        """
        if self._packed != self._sampled.size:
            raise ValueError(
                f"{_CHANGED}: {self._sampled.size} rows sampled, "
                f"{self._packed} packed")
        if self._columns:
            self._repair(out)
        self._binner.bin_edges_ = self._edges
        return self._binner

    def _repair(self, out: np.ndarray) -> None:
        if not self._recorded:
            raise ValueError(f"{_CHANGED}: no sampled value met its bracket")
        rows, columns, values, ids, sampled = (
            np.concatenate(part) for part in zip(*self._recorded))
        self._recorded = []
        # Each bracket's sampled values in float64 order, brackets in id
        # order.
        exact, exact_ids = values[sampled], ids[sampled]
        exact = exact[np.lexsort((exact, exact_ids))]
        counts = np.bincount(exact_ids, minlength=self._equal.size)
        if not np.array_equal(counts, self._equal):
            raise ValueError(
                f"{_CHANGED}: sampled values left or joined a bracket")
        starts = np.cumsum(counts) - counts
        k = np.count_nonzero(self._sampled)
        order = np.argsort(columns, kind="stable")
        bounds = np.searchsorted(columns[order],
                                 np.arange(len(self._edges) + 1))
        for f in self._columns:
            brackets = self._brackets[f]
            at_ranks = self._offset[f] + self._rank_brackets[f]
            ranked = exact[starts[at_ranks] + self._ranks
                           - self._below[at_ranks]]
            # Constant only if one bracket holds the whole sample and its
            # exact extremes agree.
            first = self._offset[f]
            lo = starts[first]
            constant = counts[first] == k and exact[lo] == exact[lo + k - 1]
            edges = self._edges[f] = _edge_rule(ranked, constant)
            # A provisional code counts the brackets below a value; its
            # exact code counts the edges in those brackets.
            with np.errstate(over="ignore"):
                table = np.append(
                    np.searchsorted(edges.astype(np.float32), brackets),
                    edges.size).astype(np.uint8)
            if not np.array_equal(table, np.arange(table.size)):
                out[:, f] = table[out[:, f]]
            cells = order[bounds[f]:bounds[f + 1]]
            if cells.size:
                out[rows[cells], f] = np.searchsorted(edges, values[cells])


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
            features: Dense float matrix ``(n, d)``; all values finite,
                ``n >= 1``.

        Returns:
            self.
        """
        features = self._check_matrix(features)
        if features.shape[0] == 0:
            raise ValueError(_EMPTY)
        return self.fit_columns(features.T)

    def fit_columns(self, columns: Iterable[np.ndarray]) -> "QuantileBinner":
        """Learn bin edges one column at a time.

        The edges equal :meth:`fit` on the matrix with these columns:
        quantiles and extremes do not depend on row order.  Only one
        column needs to exist at a time, so a caller can gather the rows
        it fits on column by column instead of copying the whole matrix.

        Args:
            columns: 1-D float columns of one length ``n >= 1``; all
                values finite.

        Returns:
            self.
        """
        quantiles = _target_quantiles(self.max_bins)
        edges = []
        for column in columns:
            column = self._as_float(column)
            if column.size == 0:
                raise ValueError(_EMPTY)
            low, high = check_finite(column)
            # method="lower" keeps candidates on observed values, so
            # columns with few distinct values get exactly that many bins
            # instead of interpolated pseudo-edges.
            edges.append(_edge_rule(
                np.quantile(column, quantiles, method="lower"), low == high))
        self.bin_edges_ = edges
        return self

    def fit_streamed(
        self,
        blocks: Iterable[np.ndarray],
        sample_rows: int = 200_000,
        seed: int = 0,
    ) -> StreamedFit:
        """Sample pass of an exact two-pass fit over a re-streamable source.

        A uniform row reservoir of at most ``sample_rows`` float32 rows
        stands in for the full matrix.  The returned :class:`StreamedFit`
        bins the same stream a second time
        (:meth:`StreamedFit.transform_into`) and :meth:`StreamedFit.finish`
        then sets this binner's edges: exactly :meth:`fit` on the float64
        rows at the sampled stream positions (the whole stream when it
        holds at most ``sample_rows`` rows).

        Args:
            blocks: Iterable of ``(m_i, d)`` float blocks (e.g.
                ``chunk.features`` from a streamed generator).
            sample_rows: Reservoir capacity — the memory bound.
            seed: Reservoir RNG seed (deterministic given the stream).

        Returns:
            The fit, ready for the pack pass.
        """
        return StreamedFit(self, blocks, sample_rows, seed)

    def transform(self, features: np.ndarray,
                  rows: np.ndarray | None = None) -> np.ndarray:
        """Map raw features to bin indices.

        Args:
            features: Dense float matrix with the fitted column count.
            rows: Optional row indices: bin ``features[rows]`` without
                copying it, gathering and checking one column at a time.

        Returns:
            ``uint8`` matrix of bin indices, one row per input row (per
            entry of ``rows`` when given).
        """
        if self.bin_edges_ is None:
            raise RuntimeError("binner is not fitted")
        features = self._as_float(features)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if rows is None:
            check_finite(features)
        if features.shape[1] != len(self.bin_edges_):
            raise ValueError(
                f"expected {len(self.bin_edges_)} features, got {features.shape[1]}"
            )
        binned = np.empty((features.shape[0] if rows is None else len(rows),
                           features.shape[1]), dtype=np.uint8)
        for f, edges in enumerate(self.bin_edges_):
            if rows is None:
                column = features[:, f]
            else:
                column = features[rows, f]
                check_finite(column)
            binned[:, f] = np.searchsorted(edges, column, side="left")
        return binned

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        """Fit on ``features`` then transform them."""
        return self.fit(features).transform(features)

    def n_bins(self, feature: int) -> int:
        """Number of occupied bins for one feature after fitting."""
        if self.bin_edges_ is None:
            raise RuntimeError("binner is not fitted")
        return len(self.bin_edges_[feature]) + 1

    @staticmethod
    def _as_float(features: np.ndarray) -> np.ndarray:
        # No forced float64 copy: float32 inputs (the reduced-precision
        # hot path) and float64 inputs pass through untouched; only
        # non-float dtypes are upcast.  searchsorted handles the
        # edge/value dtype mix per column.
        features = np.asarray(features)
        if features.dtype not in (np.float32, np.float64):
            features = features.astype(np.float64)
        return features

    @classmethod
    def _check_matrix(cls, features: np.ndarray) -> np.ndarray:
        features = cls._as_float(features)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        check_finite(features)
        return features
