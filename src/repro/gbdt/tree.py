"""A single regression tree grown leaf-wise (best-first), LightGBM style.

Each boosting round fits one :class:`DecisionTree` to the current gradient /
hessian statistics.  Unlike level-wise (XGBoost-classic) growth, leaf-wise
growth repeatedly splits the leaf with the globally largest gain until the
leaf budget is exhausted — the strategy LightGBM popularised and the one the
paper's feature extractor relies on (each tree's leaves become the categories
of one cross-feature).

A fitted tree predicts through a one-tree :class:`~repro.gbdt.forest.Forest`
built when growth ends, with its feature-bagging column map baked in;
routing is an ``O(depth × n)`` vectorised descent instead of an
``O(n_nodes × n)`` per-node mask loop.  The node list stays on the tree
for split gains (feature importance) and node-level inspection.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.gbdt.forest import Forest
from repro.gbdt.histogram import HistogramBuilder, NodeHistogram

__all__ = ["TreeParams", "DecisionTree", "SplitInfo"]


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


#: The row set of a node that no longer needs one, shared by all of them.
_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_ROWS.flags.writeable = False


@dataclass
class _Node:
    """Mutable tree node used during growth and packed for prediction.

    ``sample_indices`` and ``histogram`` are growth-time state: a node
    holds them only while it is an open leaf, so a fitted tree keeps
    neither.  ``gain`` is the split gain recorded when an internal node
    is split (the source of feature importance); it stays ``None`` on
    leaves.
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
        self._forest: Forest | None = None
        #: Leaf id of every row of fit()'s matrix, until fit_values reads it.
        self._fit_leaves: np.ndarray | None = None
        #: Sorted input columns the tree was grown on (None: all of them).
        self.column_subset: np.ndarray | None = None

    @property
    def n_leaves(self) -> int:
        """Number of leaves after fitting."""
        return self._n_leaves

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def forest(self) -> Forest:
        """The one-tree prediction arrays, built when growth ends."""
        if self._forest is None:
            raise RuntimeError("tree is not fitted")
        return self._forest

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
        every_row = sample_indices is None
        if every_row:
            sample_indices = np.arange(binned.shape[0])
        if sample_indices.size == 0:
            raise ValueError("cannot fit a tree on zero samples")
        self._nodes = []
        self._n_leaves = 0
        self._forest = None
        self.column_subset = column_subset
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

        # Without row subsampling the leaves partition every row, so the
        # boosting loop reads their ids here instead of routing the rows.
        self._fit_leaves = None
        if every_row:
            self._fit_leaves = np.empty(binned.shape[0], dtype=np.int32)
            leaves = (node for node in self._nodes if node.is_leaf)
            for leaf_id, node in enumerate(leaves):
                self._fit_leaves[node.sample_indices] = leaf_id
        self._finalize_leaves()
        self._forest = Forest.from_nodes(self._nodes, self._n_leaves,
                                         value_dtype, column_subset,
                                         binned.shape[1])
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
        (``best_split_seed`` in ``tests/seed_reference.py``) visits
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
        node.sample_indices = _NO_ROWS
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
                node.sample_indices = _NO_ROWS
        self._n_leaves = leaf_counter

    def predict_leaf(
        self, binned: np.ndarray, columns: np.ndarray | None = None
    ) -> np.ndarray:
        """Route rows to leaves; returns the dense leaf index per row.

        Args:
            binned: ``(n, d)`` bin-index matrix, as wide as the one the
                tree was grown on.
            columns: Optionally the column subset the tree was grown on.
                The routing arrays already map tree-local features to
                those columns, so it is only checked.

        Returns:
            ``(n,)`` int32 array of leaf indices in ``[0, n_leaves)``.
        """
        forest = self.forest
        if columns is not None:
            grown_on = (self.column_subset if self.column_subset is not None
                        else np.arange(forest.n_columns))
            if not np.array_equal(columns, grown_on):
                raise ValueError(
                    "columns differ from the subset the tree was grown on"
                )
        return forest.predict_leaves(binned)[:, 0]

    def predict_value(
        self, binned: np.ndarray, columns: np.ndarray | None = None
    ) -> np.ndarray:
        """Raw leaf values (pre-shrinkage contribution of this tree)."""
        return self.forest.value[self.predict_leaf(binned, columns)]

    def fit_values(self, binned: np.ndarray) -> np.ndarray:
        """:meth:`predict_value` of the matrix :meth:`fit` was given.

        The first call after a fit on every row reads the growth
        partition's leaf ids and frees them; any other call routes.
        """
        leaves, self._fit_leaves = self._fit_leaves, None
        if leaves is None:
            return self.predict_value(binned)
        return self.forest.value[leaves]

    def feature_importance(self, n_features: int) -> np.ndarray:
        """Total split gain attributed to each feature.

        Sums the non-negative gains recorded on internal nodes during
        growth, by tree-local feature.
        """
        importance = np.zeros(n_features)
        for node in self._nodes:
            if not node.is_leaf:
                importance[node.feature] += max(node.gain, 0.0)
        return importance
