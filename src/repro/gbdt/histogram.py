"""Gradient/hessian histograms over binned features.

For a candidate node holding sample set S, the best split of feature ``f``
is found by accumulating, per bin ``b``, the gradient sum ``G[f, b]`` and
hessian sum ``H[f, b]`` over samples in S, then scanning the prefix sums.

:class:`HistogramBuilder` owns prepared views of the binned matrix and
picks the faster of two accumulation kernels per node:

* **Per-feature over a transposed matrix** (large nodes).  Each feature's
  bins are one contiguous row of a ``(d, n)`` uint8 transpose — a view
  when the binned matrix is column-major (the packed dataset's layout), a
  private copy otherwise — converted into a reused
  ``intp`` scratch row once per feature so every ``np.bincount`` call
  skips its internal cast-to-intp allocation.  The per-row weight vector
  is passed as-is; no ``(k, d)`` weight expansion is ever materialised.
* **Fused-index flat bincount in column blocks** (small nodes).  The
  node's rows are gathered once as uint8; then, for each block of
  columns, every (row, column) cell maps to the flat slot
  ``column * max_bins + bin`` and three bincounts over the block build
  that block's histogram rows, amortising call overhead that would
  dominate a 3·d-call loop on a few hundred rows.  Slot ids and tiled
  weights live in two reused scratch buffers of about
  ``_FUSED_BLOCK_CELLS`` cells, so the kernel's scratch stays bounded
  whatever the node's rows × columns.

Counts are int32, exact below 2³¹ rows, which keeps an open leaf's
histogram a quarter smaller on the float32 path.

Two further structural facts are exploited: full-matrix bin *counts* do
not depend on the gradients, so they are computed once per builder and
served from cache on every full-row build (every boosting round re-bins
nothing and, without row subsampling, recounts nothing); and column
subsets (feature bagging) are handled inside both kernels instead of
materialising ``binned[:, cols]``.

Both kernels accumulate each histogram slot in row order — exactly the
order a naive per-feature ``bincount`` over ``binned[sample_indices]``
uses — so the float sums are bit-identical to the seed implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NodeHistogram", "HistogramBuilder"]

#: Rows an int32 count holds exactly.
_MAX_ROWS = 1 << 31


@dataclass(frozen=True)
class NodeHistogram:
    """Per-feature gradient and hessian histograms for one tree node.

    Attributes:
        grad: ``(n_features, max_bins)`` gradient sums (float64, or
            float32 on the opt-in reduced-precision path).
        hess: ``(n_features, max_bins)`` hessian sums (same dtype).
        count: ``(n_features, max_bins)`` int32 sample counts.
    """

    grad: np.ndarray
    hess: np.ndarray
    count: np.ndarray

    @property
    def total_grad(self) -> float:
        """Gradient sum over the node (identical for every feature row)."""
        return float(self.grad[0].sum())

    @property
    def total_hess(self) -> float:
        """Hessian sum over the node."""
        return float(self.hess[0].sum())

    @property
    def total_count(self) -> int:
        """Sample count in the node."""
        return int(self.count[0].sum())

    def subtract(self, sibling: "NodeHistogram") -> "NodeHistogram":
        """Histogram of the complement child via the subtraction trick.

        LightGBM builds the smaller child's histogram directly and obtains
        the larger child's as ``parent - smaller`` — halving histogram work.
        """
        return NodeHistogram(
            grad=self.grad - sibling.grad,
            hess=self.hess - sibling.hess,
            count=self.count - sibling.count,
        )


class HistogramBuilder:
    """Reusable histogram kernel over one binned matrix.

    Construct once per boosting run (over a row-major matrix the
    transpose costs one ``(d, n)`` uint8 copy; over a column-major one it
    is a view), then call :meth:`build` for every
    tree node.  The builder is read-only with respect to the binned data,
    so one instance serves every tree of an ensemble, including trees fit
    on feature subsets.
    """

    #: Node size (rows) above which the per-feature kernel beats the
    #: fused-index kernel (bincount call overhead amortised).
    _PER_FEATURE_MIN_ROWS = 8192
    #: The same over a column-major matrix: there the fused kernel's row
    #: gather reads every column's stretch of rows, and gathering column
    #: by column wins from about 1.5k (30k rows) to 3.5k (1.4M) node rows.
    _COLUMN_MAJOR_PER_FEATURE_MIN_ROWS = 2048
    #: Cells (rows × columns) per fused-kernel column block: bounds the
    #: kernel's intp slot and float64 weight scratch to 512 KiB each.
    _FUSED_BLOCK_CELLS = 1 << 16

    def __init__(self, binned: np.ndarray, max_bins: int,
                 hist_dtype: np.dtype | type | str = np.float64):
        binned = np.asarray(binned)
        if binned.ndim != 2:
            raise ValueError("binned must be a 2-D matrix")
        if max_bins < 2:
            raise ValueError("max_bins must be >= 2")
        if binned.shape[0] >= _MAX_ROWS:
            raise ValueError("int32 counts hold fewer than 2**31 rows")
        # Accumulation always happens in float64 (np.bincount's native
        # accumulator); hist_dtype only controls the *stored* histogram
        # dtype — (d, max_bins) arrays, so the float32 cast is cheap and
        # downstream split-gain math runs in reduced precision.
        self.hist_dtype = np.dtype(hist_dtype)
        if self.hist_dtype not in (np.float32, np.float64):
            raise ValueError("hist_dtype must be float32 or float64")
        self.max_bins = int(max_bins)
        self.n_samples, self.n_features = binned.shape
        self._binned = binned
        # One contiguous uint8 row per feature: a view of a column-major
        # matrix, a copy of a row-major one.
        self._bins_t = np.ascontiguousarray(binned.T)
        column_major = (binned.flags.f_contiguous
                        and not binned.flags.c_contiguous)
        self._per_feature_min_rows = (
            self._COLUMN_MAJOR_PER_FEATURE_MIN_ROWS if column_major
            else self._PER_FEATURE_MIN_ROWS)
        # Reused intp row: bincount takes intp input as-is, skipping the
        # cast-to-intp copy it would otherwise allocate per call.
        self._scratch = np.empty(self.n_samples, dtype=np.intp)
        self._row_ids = np.arange(self.n_samples, dtype=np.int64)
        self._col_ids = np.arange(self.n_features)
        self._slot_buf = np.empty(0, dtype=np.intp)
        self._weight_buf = np.empty(0, dtype=np.float64)
        self._full_counts_cache: np.ndarray | None = None

    def build(
        self,
        gradients: np.ndarray,
        hessians: np.ndarray,
        sample_indices: np.ndarray | None,
        column_subset: np.ndarray | None = None,
    ) -> NodeHistogram:
        """Accumulate per-bin gradient/hessian/count sums for one node.

        Args:
            gradients: Per-sample gradients ``(n,)`` over the full matrix.
            hessians: Per-sample hessians ``(n,)``.
            sample_indices: Row indices belonging to the node (None for
                all rows).
            column_subset: Optional sorted feature-column indices; the
                returned histogram rows follow subset order, matching a
                tree grown in the subset feature space.

        Returns:
            A :class:`NodeHistogram` with ``(d_sub, max_bins)`` arrays.
        """
        if sample_indices is not None and self._is_all_rows(sample_indices):
            sample_indices = None
        if (sample_indices is None
                or sample_indices.size >= self._per_feature_min_rows):
            return self._build_per_feature(
                gradients, hessians, sample_indices, column_subset
            )
        return self._build_fused(
            gradients, hessians, sample_indices, column_subset
        )

    def _is_all_rows(self, sample_indices: np.ndarray) -> bool:
        """True iff ``sample_indices`` is exactly ``arange(n)``.

        Only the identity ordering may skip the row gather: a permutation
        of all rows would accumulate slots in a different order and change
        the low bits of the float sums.
        """
        return sample_indices.size == self.n_samples and bool(
            (sample_indices == self._row_ids).all()
        )

    def _columns(self, column_subset: np.ndarray | None) -> np.ndarray:
        if column_subset is None:
            return self._col_ids
        return np.asarray(column_subset)

    def _full_counts(self) -> np.ndarray:
        """Per-feature bin counts of the full matrix, computed once.

        Counts depend only on the binned values, never on the gradient
        statistics, so every full-row build of every boosting round can
        share them.
        """
        if self._full_counts_cache is None:
            mb = self.max_bins
            out = np.empty((self.n_features, mb), dtype=np.int32)
            bins = self._scratch
            for f in range(self.n_features):
                np.copyto(bins, self._bins_t[f], casting="unsafe")
                out[f] = np.bincount(bins, minlength=mb)
            self._full_counts_cache = out
        return self._full_counts_cache

    def _build_per_feature(
        self,
        gradients: np.ndarray,
        hessians: np.ndarray,
        sample_indices: np.ndarray | None,
        column_subset: np.ndarray | None,
    ) -> NodeHistogram:
        """Large-node kernel: one bincount per (feature, statistic)."""
        columns = self._columns(column_subset)
        mb = self.max_bins
        bc = np.bincount
        grad = np.empty((columns.size, mb), dtype=self.hist_dtype)
        hess = np.empty((columns.size, mb), dtype=self.hist_dtype)

        if sample_indices is None:
            grad_w = np.ascontiguousarray(gradients, dtype=np.float64)
            hess_w = np.ascontiguousarray(hessians, dtype=np.float64)
            counts = self._full_counts()
            count = (
                counts.copy() if column_subset is None else counts[columns]
            )
            bins = self._scratch
            for out, col in enumerate(columns):
                np.copyto(bins, self._bins_t[col], casting="unsafe")
                grad[out] = bc(bins, weights=grad_w, minlength=mb)
                hess[out] = bc(bins, weights=hess_w, minlength=mb)
            return NodeHistogram(grad=grad, hess=hess, count=count)

        grad_w = gradients[sample_indices]
        hess_w = hessians[sample_indices]
        count = np.empty((columns.size, mb), dtype=np.int32)
        bins = self._scratch[: sample_indices.size]
        for out, col in enumerate(columns):
            bins[:] = self._bins_t[col][sample_indices]
            grad[out] = bc(bins, weights=grad_w, minlength=mb)
            hess[out] = bc(bins, weights=hess_w, minlength=mb)
            count[out] = bc(bins, minlength=mb)
        return NodeHistogram(grad=grad, hess=hess, count=count)

    def _build_fused(
        self,
        gradients: np.ndarray,
        hessians: np.ndarray,
        sample_indices: np.ndarray,
        column_subset: np.ndarray | None,
    ) -> NodeHistogram:
        """Small-node kernel: three flat bincounts per column block.

        Every slot belongs to one column, and each block's cells are
        raveled row-major, so every slot still accumulates in row order.
        """
        if column_subset is None:
            block = self._binned[sample_indices]
        else:
            block = self._binned[np.ix_(sample_indices, column_subset)]
        n_node, n_cols = block.shape
        mb = self.max_bins
        grad_w = gradients[sample_indices]
        hess_w = hessians[sample_indices]
        width = max(1, self._FUSED_BLOCK_CELLS // max(n_node, 1))
        if self._slot_buf.size < n_node * width:
            self._slot_buf = np.empty(n_node * width, dtype=np.intp)
            self._weight_buf = np.empty(n_node * width, dtype=np.float64)
        offsets = np.arange(width, dtype=np.intp) * mb
        grad = np.empty((n_cols, mb), dtype=self.hist_dtype)
        hess = np.empty((n_cols, mb), dtype=self.hist_dtype)
        count = np.empty((n_cols, mb), dtype=np.int32)
        bc = np.bincount
        for start in range(0, n_cols, width):
            stop = min(start + width, n_cols)
            w = stop - start
            n_slots = w * mb
            # Slot of cell (i, f): (f - start) * max_bins + bin, written
            # as intp so bincount takes the scratch as-is.
            slots = self._slot_buf[: n_node * w]
            np.add(block[:, start:stop], offsets[:w],
                   out=slots.reshape(n_node, w), casting="unsafe")
            weights = self._weight_buf[: n_node * w]
            tiled = weights.reshape(n_node, w)
            count[start:stop] = bc(slots, minlength=n_slots).reshape(w, mb)
            tiled[:] = grad_w[:, None]
            grad[start:stop] = bc(
                slots, weights=weights, minlength=n_slots
            ).reshape(w, mb)
            tiled[:] = hess_w[:, None]
            hess[start:stop] = bc(
                slots, weights=weights, minlength=n_slots
            ).reshape(w, mb)
        return NodeHistogram(grad=grad, hess=hess, count=count)
