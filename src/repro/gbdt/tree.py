"""A single regression tree grown leaf-wise (best-first), LightGBM style.

Each boosting round fits one :class:`DecisionTree` to the current gradient /
hessian statistics.  Unlike level-wise (XGBoost-classic) growth, leaf-wise
growth repeatedly splits the leaf with the globally largest gain until the
leaf budget is exhausted — the strategy LightGBM popularised and the one the
paper's feature extractor relies on (each tree's leaves become the categories
of one cross-feature).

Inference is served from a *flattened* struct-of-arrays form built once
after fitting (:class:`FlatTree`): parallel ``feature`` / ``threshold`` /
``left`` / ``right`` / ``leaf_index`` arrays in which every leaf points to
itself.  Routing all rows is then an ``O(depth × n)`` vectorised descent
— ``node = left[node] + (bin > threshold[node])`` — instead of an
``O(n_nodes × n)`` per-node mask loop.  The descent leans on two
structural facts: siblings are appended consecutively during growth (so
``right == left + 1`` always), and bin thresholds fit in a byte (so each
node's feature and threshold pack into one int32, halving the per-level
gather work).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.gbdt.histogram import HistogramBuilder, NodeHistogram

__all__ = ["TreeParams", "DecisionTree", "SplitInfo", "FlatTree"]


@dataclass(frozen=True)
class TreeParams:
    """Growth hyper-parameters of one tree.

    Attributes:
        max_leaves: Leaf budget (LightGBM's ``num_leaves``).
        max_depth: Depth cap; -1 disables the cap.
        min_child_samples: Minimum samples a child must keep.
        min_child_hessian: Minimum hessian mass a child must keep.
        reg_lambda: L2 regularisation on leaf values.
        min_split_gain: Minimum gain for a split to be accepted.
    """

    max_leaves: int = 31
    max_depth: int = -1
    min_child_samples: int = 20
    min_child_hessian: float = 1e-3
    reg_lambda: float = 1.0
    min_split_gain: float = 1e-7

    def __post_init__(self) -> None:
        if self.max_leaves < 2:
            raise ValueError("max_leaves must be >= 2")
        if self.min_child_samples < 1:
            raise ValueError("min_child_samples must be >= 1")
        if self.reg_lambda < 0:
            raise ValueError("reg_lambda must be non-negative")


@dataclass(frozen=True)
class SplitInfo:
    """Best split found for a node (or None when no valid split exists)."""

    feature: int
    bin_threshold: int  # go left when bin <= threshold
    gain: float
    left_grad: float
    left_hess: float
    left_count: int


@dataclass
class _Node:
    """Mutable tree node used during growth and flattened for prediction.

    ``sample_indices`` and ``histogram`` are growth-time state: a node
    holds them only while it is an open leaf, so a fitted tree keeps
    neither.  ``gain`` is the split gain recorded when an internal node
    is split (the source of feature importance); it stays ``None`` on
    leaves and on deserialised trees.
    """

    node_id: int
    depth: int
    sample_indices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    histogram: NodeHistogram | None = None
    feature: int = -1
    bin_threshold: int = -1
    left: int = -1
    right: int = -1
    leaf_index: int = -1  # dense index among leaves; -1 for internal nodes
    value: float = 0.0
    gain: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left == -1


@dataclass(frozen=True)
class FlatTree:
    """Struct-of-arrays prediction form of a fitted tree.

    Leaves are encoded as self-loops (``left == right == node_id`` with an
    always-true threshold), so ``depth`` routing iterations settle every
    row on its leaf regardless of where it landed earlier.

    Attributes:
        feature: ``(n_nodes,)`` int32 split feature (0 for leaves).
        threshold: ``(n_nodes,)`` int32 bin threshold (max for leaves, so
            any bin compares ``<=`` and the self-loop is taken).
        left: ``(n_nodes,)`` int32 left-child id (self for leaves).
        right: ``(n_nodes,)`` int32 right-child id (self for leaves).
        leaf_index: ``(n_nodes,)`` int64 dense leaf index (-1 internal).
        value: ``(n_leaves,)`` float64 leaf values, by dense leaf index.
        depth: Maximum leaf depth — the routing iteration count.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_index: np.ndarray
    value: np.ndarray
    depth: int

    #: Leaf threshold in the packed form: no uint8 bin exceeds it, so a
    #: leaf's self-loop edge is always the "left" (not-greater) branch.
    _LEAF_THRESHOLD = 255

    def __post_init__(self) -> None:
        # Fast routing packs each node's (left, feature, threshold) into
        # one int64 — a single gather per descent level.  It needs
        # right == left + 1 (siblings are appended consecutively during
        # growth), byte-sized thresholds, and features below 2^24.  All
        # hold for every tree this codebase grows or deserialises; the
        # general where()-descent remains as a fallback.
        internal = self.leaf_index < 0
        packable = bool(
            np.array_equal(self.right[internal], self.left[internal] + 1)
            and np.all(self.threshold[internal] >= 0)
            and np.all(self.threshold[internal] < self._LEAF_THRESHOLD)
            and (self.feature.size == 0
                 or int(self.feature.max()) < 1 << 24)
        )
        pack = None
        if packable:
            byte_thr = np.where(
                internal, self.threshold, self._LEAF_THRESHOLD
            ).astype(np.int64)
            pack = (
                (self.left.astype(np.int64) << 32)
                | (self.feature.astype(np.int64) << 8)
                | byte_thr
            )
        object.__setattr__(self, "_pack", pack)

    @classmethod
    def from_nodes(cls, nodes: list[_Node], n_leaves: int,
                   value_dtype: np.dtype | type | str = np.float64,
                   ) -> "FlatTree":
        """Compact a node list into the parallel-array form.

        Args:
            nodes: Growth-time node list.
            n_leaves: Dense leaf count.
            value_dtype: Dtype of the leaf-value array (float32 on the
                opt-in reduced-precision path; persisted trees always
                restore as float64).
        """
        n_nodes = len(nodes)
        feature = np.zeros(n_nodes, dtype=np.int32)
        threshold = np.full(n_nodes, np.iinfo(np.int32).max, dtype=np.int32)
        left = np.arange(n_nodes, dtype=np.int32)
        right = np.arange(n_nodes, dtype=np.int32)
        leaf_index = np.full(n_nodes, -1, dtype=np.int64)
        value = np.zeros(max(n_leaves, 1), dtype=value_dtype)
        depth = 0
        for node in nodes:
            if node.is_leaf:
                leaf_index[node.node_id] = node.leaf_index
                value[node.leaf_index] = node.value
                depth = max(depth, node.depth)
            else:
                feature[node.node_id] = node.feature
                threshold[node.node_id] = node.bin_threshold
                left[node.node_id] = node.left
                right[node.node_id] = node.right
        return cls(feature=feature, threshold=threshold, left=left,
                   right=right, leaf_index=leaf_index, value=value,
                   depth=depth)

    def route(self, binned: np.ndarray,
              columns: np.ndarray | None = None) -> np.ndarray:
        """Vectorised descent: leaf *node id* of every row.

        Args:
            binned: ``(n, d)`` bin-index matrix.  ``d`` is the tree's own
                feature space when ``columns`` is None, else the full
                matrix the tree's features index into via ``columns``.
            columns: Optional map from tree-local feature id to column of
                ``binned`` (feature bagging without slicing the matrix).

        Returns:
            ``(n,)`` integer node ids, all leaves.
        """
        if self._pack is None:
            return self._route_general(binned, columns)
        n, d = binned.shape
        pack = self._pack
        if columns is not None:
            # Remap tree-local features to matrix columns once per call
            # (n_nodes entries) instead of per routed row.
            cols = np.asarray(columns, dtype=np.int64)
            pack = (
                (self.left.astype(np.int64) << 32)
                | (cols[self.feature] << 8)
                | (pack & 255)
            )
        flat_bins = binned.ravel()
        row_offset = np.arange(n, dtype=np.int64) * d
        node = np.zeros(n, dtype=np.int64)
        for _ in range(self.depth):
            p = pack[node]
            bins = flat_bins[row_offset + ((p >> 8) & 0xFFFFFF)]
            node = (p >> 32) + (bins > (p & 255))
        return node

    def _route_general(self, binned: np.ndarray,
                       columns: np.ndarray | None) -> np.ndarray:
        """where()-based descent for trees the packed form cannot encode."""
        n = binned.shape[0]
        feature = self.feature
        if columns is not None:
            feature = np.asarray(columns, dtype=np.int64)[self.feature]
        node = np.zeros(n, dtype=np.int32)
        rows = np.arange(n)
        for _ in range(self.depth):
            bins = binned[rows, feature[node]]
            go_left = bins <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return node


class DecisionTree:
    """Histogram-based regression tree over pre-binned features.

    The tree is fit on second-order statistics (gradients and hessians of an
    arbitrary twice-differentiable loss), so the same class serves logloss
    boosting here and could serve any GBDT objective.
    """

    def __init__(self, params: TreeParams | None = None):
        self.params = params or TreeParams()
        self._nodes: list[_Node] = []
        self._n_leaves = 0
        self._flat: FlatTree | None = None
        self._value_dtype: np.dtype = np.dtype(np.float64)

    @property
    def n_leaves(self) -> int:
        """Number of leaves after fitting."""
        return self._n_leaves

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def flat(self) -> FlatTree:
        """The struct-of-arrays prediction form (built lazily)."""
        if self._flat is None:
            if not self._nodes:
                raise RuntimeError("tree is not fitted")
            self._flat = FlatTree.from_nodes(self._nodes, self._n_leaves,
                                             self._value_dtype)
        return self._flat

    def fit(
        self,
        binned: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        max_bins: int,
        sample_indices: np.ndarray | None = None,
        column_subset: np.ndarray | None = None,
        builder: HistogramBuilder | None = None,
        value_dtype: np.dtype | type | str = np.float64,
    ) -> "DecisionTree":
        """Grow the tree on (possibly subsampled) training rows.

        Args:
            binned: ``(n, d)`` uint8 bin indices for all training rows.
            gradients: Per-row first-order loss derivatives.
            hessians: Per-row second-order loss derivatives.
            max_bins: Histogram width.
            sample_indices: Optional row subset (bagging).
            column_subset: Optional sorted column indices (feature bagging).
                Node features are stored relative to this subset, exactly
                as if the tree had been fit on ``binned[:, column_subset]``
                — but without materialising that copy.
            builder: Optional shared :class:`HistogramBuilder` over
                ``binned`` (the boosting loop passes one per ensemble).
            value_dtype: Leaf-value storage dtype (float32 on the opt-in
                reduced-precision path).

        Returns:
            self.
        """
        if sample_indices is None:
            sample_indices = np.arange(binned.shape[0])
        if sample_indices.size == 0:
            raise ValueError("cannot fit a tree on zero samples")
        self._nodes = []
        self._n_leaves = 0
        self._flat = None
        self._max_bins = max_bins
        self._value_dtype = np.dtype(value_dtype)
        if builder is None:
            builder = HistogramBuilder(binned, max_bins)
        # Growth-time references, dropped at the end of fit().
        self._builder = builder
        self._binned = binned
        self._column_subset = column_subset
        self._gradients = gradients
        self._hessians = hessians

        root_hist = builder.build(gradients, hessians, sample_indices,
                                  column_subset)
        root = _Node(node_id=0, depth=0, sample_indices=sample_indices,
                     histogram=root_hist)
        self._nodes.append(root)

        # Max-heap of candidate splits keyed by gain; the tiebreaker keeps
        # heap ordering deterministic when gains tie.
        heap: list[tuple[float, int, int, SplitInfo]] = []
        tiebreak = itertools.count()

        def push_candidate(node: _Node) -> None:
            split = self._best_split(node)
            if split is not None:
                heapq.heappush(heap, (-split.gain, next(tiebreak),
                                      node.node_id, split))

        push_candidate(root)
        n_leaves = 1
        while heap and n_leaves < self.params.max_leaves:
            _, __, node_id, split = heapq.heappop(heap)
            node = self._nodes[node_id]
            left, right = self._apply_split(node, split)
            n_leaves += 1
            push_candidate(left)
            push_candidate(right)

        self._finalize_leaves()
        self._flat = FlatTree.from_nodes(self._nodes, self._n_leaves,
                                         self._value_dtype)
        del self._builder, self._binned, self._column_subset
        del self._gradients, self._hessians
        return self

    def _best_split(self, node: _Node) -> SplitInfo | None:
        """Find the highest-gain valid split over all features at once.

        Fully vectorised: 2-D prefix sums over the (feature, bin)
        histogram, one validity mask, gains evaluated on the valid slots
        only, and a single flat argmax.  Row-major flattening makes the
        tie-break deterministic — lowest feature, then lowest bin — which
        is exactly the order the seed per-feature loop
        (:func:`repro.perfbench.reference.best_split_seed`) visits
        candidates in, so the two are bit-identical (golden-tested).
        """
        params = self.params
        if params.max_depth >= 0 and node.depth >= params.max_depth:
            return None
        hist = node.histogram
        total_grad = hist.total_grad
        total_hess = hist.total_hess
        total_count = hist.total_count
        if total_count < 2 * params.min_child_samples:
            return None
        parent_score = total_grad**2 / (total_hess + params.reg_lambda)

        # Prefix sums over bins: splitting after bin b sends bins <= b left.
        # The last bin cannot be a split point (nothing would go right).
        lg = np.cumsum(hist.grad, axis=1)[:, :-1]
        lh = np.cumsum(hist.hess, axis=1)[:, :-1]
        lc = np.cumsum(hist.count, axis=1)[:, :-1]
        rg = total_grad - lg
        rh = total_hess - lh
        rc = total_count - lc
        valid = (
            (lc >= params.min_child_samples)
            & (rc >= params.min_child_samples)
            & (lh >= params.min_child_hessian)
            & (rh >= params.min_child_hessian)
        )
        if not valid.any():
            return None
        # Gains inherit the histogram dtype: float64 on the default path
        # (bit-identical to the seed loop), float32 on the reduced-
        # precision path.
        gains = np.full(lg.shape, -np.inf, dtype=lg.dtype)
        gains[valid] = (
            lg[valid] ** 2 / (lh[valid] + params.reg_lambda)
            + rg[valid] ** 2 / (rh[valid] + params.reg_lambda)
            - parent_score
        )
        flat = int(np.argmax(gains))
        f, b = divmod(flat, gains.shape[1])
        if gains[f, b] <= params.min_split_gain:
            return None
        return SplitInfo(
            feature=int(f),
            bin_threshold=int(b),
            gain=float(gains[f, b]),
            left_grad=float(lg[f, b]),
            left_hess=float(lh[f, b]),
            left_count=int(lc[f, b]),
        )

    def _apply_split(
        self, node: _Node, split: SplitInfo
    ) -> tuple[_Node, _Node]:
        """Materialise a split: partition rows, build child histograms."""
        rows = node.sample_indices
        column = split.feature
        if self._column_subset is not None:
            column = self._column_subset[split.feature]
        goes_left = self._binned[rows, column] <= split.bin_threshold
        left_rows = rows[goes_left]
        right_rows = rows[~goes_left]

        # Histogram subtraction trick: build the smaller side, derive the other.
        if left_rows.size <= right_rows.size:
            left_hist = self._builder.build(
                self._gradients, self._hessians, left_rows,
                self._column_subset,
            )
            right_hist = node.histogram.subtract(left_hist)
        else:
            right_hist = self._builder.build(
                self._gradients, self._hessians, right_rows,
                self._column_subset,
            )
            left_hist = node.histogram.subtract(right_hist)

        left = _Node(node_id=len(self._nodes), depth=node.depth + 1,
                     sample_indices=left_rows, histogram=left_hist)
        self._nodes.append(left)
        right = _Node(node_id=len(self._nodes), depth=node.depth + 1,
                      sample_indices=right_rows, histogram=right_hist)
        self._nodes.append(right)

        # Record the split gain from the node totals (float64 on either
        # dtype path), then free the parent's growth-time state.
        lam = self.params.reg_lambda
        parent_hist = node.histogram
        node.gain = (
            left_hist.total_grad**2 / (left_hist.total_hess + lam)
            + right_hist.total_grad**2 / (right_hist.total_hess + lam)
            - parent_hist.total_grad**2 / (parent_hist.total_hess + lam)
        )
        node.feature = split.feature
        node.bin_threshold = split.bin_threshold
        node.left = left.node_id
        node.right = right.node_id
        node.histogram = None
        node.sample_indices = np.empty(0, dtype=np.int64)
        return left, right

    def _finalize_leaves(self) -> None:
        """Assign dense leaf indices and Newton-step leaf values."""
        leaf_counter = 0
        for node in self._nodes:
            if node.is_leaf:
                node.leaf_index = leaf_counter
                leaf_counter += 1
                hist = node.histogram
                node.value = -hist.total_grad / (
                    hist.total_hess + self.params.reg_lambda
                )
                node.histogram = None
                node.sample_indices = np.empty(0, dtype=np.int64)
        self._n_leaves = leaf_counter

    def predict_leaf(
        self, binned: np.ndarray, columns: np.ndarray | None = None
    ) -> np.ndarray:
        """Route rows to leaves; returns the dense leaf index per row.

        Args:
            binned: ``(n, d)`` bin-index matrix from the same binner — the
                tree's own feature space, or the full matrix together with
                ``columns``.
            columns: Optional tree-local-feature → column map, so callers
                with feature-bagged trees never slice the binned matrix.

        Returns:
            ``(n,)`` int array of leaf indices in ``[0, n_leaves)``.
        """
        flat = self.flat
        return flat.leaf_index[flat.route(binned, columns)]

    def predict_value(
        self, binned: np.ndarray, columns: np.ndarray | None = None
    ) -> np.ndarray:
        """Raw leaf values (pre-shrinkage contribution of this tree)."""
        return self.flat.value[self.predict_leaf(binned, columns)]

    def feature_importance(self, n_features: int) -> np.ndarray:
        """Total split gain attributed to each feature.

        Sums the non-negative gains recorded on internal nodes during
        growth.  Deserialised trees carry no gains, so importance is
        unavailable on them.
        """
        if any(n.gain is None for n in self._nodes if not n.is_leaf):
            raise RuntimeError(
                "feature importance requires gains recorded from "
                "growth-time histograms (unavailable on deserialised trees)"
            )
        importance = np.zeros(n_features)
        for node in self._nodes:
            if not node.is_leaf:
                importance[node.feature] += max(node.gain, 0.0)
        return importance
