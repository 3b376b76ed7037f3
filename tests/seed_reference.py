"""The seed (pre-vectorisation) GBDT kernels, preserved verbatim.

These are the implementations the repo shipped with before the fused-index
histogram, flattened-tree routing, and direct-CSR encoding landed: Python
loops over features, per-node boolean masks, a COO round-trip, and a
``binned[:, cols]`` copy on every boosting round and every predict call.

They are the golden oracle and must not be "improved": the golden suites
(``test_gbdt_golden_equivalence.py``, ``test_gbdt_forest.py``) assert the
vectorised kernels reproduce them bit-for-bit (same splits, leaf indices,
probabilities).  This is the only module in the repository that imports
scipy, which is why scipy is a test-only dependency.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np
from scipy import sparse

from repro.gbdt.binning import QuantileBinner
from repro.gbdt.boosting import GBDTParams
from repro.gbdt.histogram import NodeHistogram
from repro.gbdt.tree import DecisionTree, SplitInfo, TreeParams, _Node
from repro.numerics import binary_cross_entropy, sigmoid

__all__ = [
    "build_histogram_seed",
    "best_split_seed",
    "predict_leaf_seed",
    "encode_leaves_seed",
    "SeedDecisionTree",
    "SeedGBDT",
]


def build_histogram_seed(
    binned: np.ndarray,
    gradients: np.ndarray,
    hessians: np.ndarray,
    sample_indices: np.ndarray,
    max_bins: int,
) -> NodeHistogram:
    """Seed histogram build: one ``np.bincount`` per feature."""
    n_features = binned.shape[1]
    grad = np.zeros((n_features, max_bins))
    hess = np.zeros((n_features, max_bins))
    count = np.zeros((n_features, max_bins))
    node_bins = binned[sample_indices]
    node_grad = gradients[sample_indices]
    node_hess = hessians[sample_indices]
    for f in range(n_features):
        bins_f = node_bins[:, f]
        grad[f] = np.bincount(bins_f, weights=node_grad, minlength=max_bins)
        hess[f] = np.bincount(bins_f, weights=node_hess, minlength=max_bins)
        count[f] = np.bincount(bins_f, minlength=max_bins)
    return NodeHistogram(grad=grad, hess=hess, count=count)


def best_split_seed(params: TreeParams, node: _Node) -> SplitInfo | None:
    """Seed split search: scan the histogram one feature at a time.

    This is the pre-vectorisation ``DecisionTree._best_split`` preserved
    verbatim — a Python loop over features, each evaluating its own 1-D
    prefix sums, per-feature argmax and running-best comparison.  The
    live 2-D implementation must reproduce its (feature, bin, gain)
    choice bit-for-bit, ties and all-invalid nodes included.
    """
    if params.max_depth >= 0 and node.depth >= params.max_depth:
        return None
    hist = node.histogram
    total_grad = hist.total_grad
    total_hess = hist.total_hess
    total_count = hist.total_count
    if total_count < 2 * params.min_child_samples:
        return None
    parent_score = total_grad**2 / (total_hess + params.reg_lambda)

    best: SplitInfo | None = None
    left_grad = np.cumsum(hist.grad, axis=1)
    left_hess = np.cumsum(hist.hess, axis=1)
    left_count = np.cumsum(hist.count, axis=1)
    for f in range(hist.grad.shape[0]):
        lg = left_grad[f, :-1]
        lh = left_hess[f, :-1]
        lc = left_count[f, :-1]
        rg = total_grad - lg
        rh = total_hess - lh
        rc = total_count - lc
        valid = (
            (lc >= params.min_child_samples)
            & (rc >= params.min_child_samples)
            & (lh >= params.min_child_hessian)
            & (rh >= params.min_child_hessian)
        )
        if not np.any(valid):
            continue
        gains = np.full(lg.shape, -np.inf)
        gains[valid] = (
            lg[valid] ** 2 / (lh[valid] + params.reg_lambda)
            + rg[valid] ** 2 / (rh[valid] + params.reg_lambda)
            - parent_score
        )
        b = int(np.argmax(gains))
        if gains[b] <= params.min_split_gain:
            continue
        if best is None or gains[b] > best.gain:
            best = SplitInfo(
                feature=f,
                bin_threshold=b,
                gain=float(gains[b]),
                left_grad=float(lg[b]),
                left_hess=float(lh[b]),
                left_count=int(lc[b]),
            )
    return best


def predict_leaf_seed(tree: DecisionTree, binned: np.ndarray) -> np.ndarray:
    """Seed leaf routing: ``O(n_nodes × n)`` per-node mask loop.

    Works on any fitted :class:`DecisionTree` (or seed tree) via its node
    list; ``binned`` must be in the tree's own feature space.
    """
    nodes = tree._nodes
    if not nodes:
        raise RuntimeError("tree is not fitted")
    n = binned.shape[0]
    current = np.zeros(n, dtype=np.int64)
    # Children always have larger ids than their parent, so a single
    # in-order pass routes every row to its leaf.
    for node in nodes:
        if node.is_leaf:
            continue
        here = current == node.node_id
        if not np.any(here):
            continue
        goes_left = binned[here, node.feature] <= node.bin_threshold
        dest = np.where(goes_left, node.left, node.right)
        current[here] = dest
    leaf_index_of_node = np.array(
        [node.leaf_index for node in nodes], dtype=np.int64
    )
    return leaf_index_of_node[current]


def encode_leaves_seed(
    leaf_matrix: np.ndarray, offsets: np.ndarray
) -> sparse.csr_matrix:
    """Seed multi-hot encoding: build COO triplets, convert to CSR."""
    n, n_trees = leaf_matrix.shape
    cols = (leaf_matrix + offsets[:-1][None, :]).ravel()
    rows = np.repeat(np.arange(n), n_trees)
    data = np.ones(cols.size)
    return sparse.csr_matrix(
        (data, (rows, cols)), shape=(n, int(offsets[-1]))
    )


class SeedDecisionTree:
    """The seed leaf-wise tree: loop histograms, sliced-matrix fitting.

    Structurally identical growth logic to :class:`DecisionTree` but backed
    by :func:`build_histogram_seed` and :func:`predict_leaf_seed`; exposes
    the same ``_nodes`` list so trees can be compared node-by-node.
    """

    def __init__(self, params: TreeParams | None = None):
        self.params = params or TreeParams()
        self._nodes: list[_Node] = []
        self._n_leaves = 0

    @property
    def n_leaves(self) -> int:
        return self._n_leaves

    def fit(
        self,
        binned: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        max_bins: int,
        sample_indices: np.ndarray | None = None,
    ) -> "SeedDecisionTree":
        if sample_indices is None:
            sample_indices = np.arange(binned.shape[0])
        if sample_indices.size == 0:
            raise ValueError("cannot fit a tree on zero samples")
        self._nodes = []
        self._n_leaves = 0
        self._max_bins = max_bins

        root_hist = build_histogram_seed(binned, gradients, hessians,
                                         sample_indices, max_bins)
        root = _Node(node_id=0, depth=0, sample_indices=sample_indices,
                     histogram=root_hist)
        self._nodes.append(root)

        heap: list[tuple[float, int, int, SplitInfo]] = []
        tiebreak = itertools.count()

        def push_candidate(node: _Node) -> None:
            split = best_split_seed(self.params, node)
            if split is not None:
                heapq.heappush(heap, (-split.gain, next(tiebreak),
                                      node.node_id, split))

        push_candidate(root)
        n_leaves = 1
        while heap and n_leaves < self.params.max_leaves:
            _, __, node_id, split = heapq.heappop(heap)
            node = self._nodes[node_id]
            left, right = self._apply_split(node, split, binned, gradients,
                                            hessians)
            n_leaves += 1
            push_candidate(left)
            push_candidate(right)

        DecisionTree._finalize_leaves(self)
        return self

    def _apply_split(
        self,
        node: _Node,
        split: SplitInfo,
        binned: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
    ) -> tuple[_Node, _Node]:
        rows = node.sample_indices
        goes_left = binned[rows, split.feature] <= split.bin_threshold
        left_rows = rows[goes_left]
        right_rows = rows[~goes_left]

        if left_rows.size <= right_rows.size:
            left_hist = build_histogram_seed(binned, gradients, hessians,
                                             left_rows, self._max_bins)
            right_hist = node.histogram.subtract(left_hist)
        else:
            right_hist = build_histogram_seed(binned, gradients, hessians,
                                              right_rows, self._max_bins)
            left_hist = node.histogram.subtract(right_hist)

        left = _Node(node_id=len(self._nodes), depth=node.depth + 1,
                     sample_indices=left_rows, histogram=left_hist)
        self._nodes.append(left)
        right = _Node(node_id=len(self._nodes), depth=node.depth + 1,
                      sample_indices=right_rows, histogram=right_hist)
        self._nodes.append(right)

        node.feature = split.feature
        node.bin_threshold = split.bin_threshold
        node.left = left.node_id
        node.right = right.node_id
        node.sample_indices = np.empty(0, dtype=np.int64)
        return left, right

    def predict_leaf(self, binned: np.ndarray) -> np.ndarray:
        return predict_leaf_seed(self, binned)

    def predict_value(self, binned: np.ndarray) -> np.ndarray:
        leaf_values = np.array(
            [node.value for node in self._nodes if node.is_leaf]
        )
        return leaf_values[self.predict_leaf(binned)]


class SeedGBDT:
    """The seed boosting loop: unsorted bagging, per-round matrix copies.

    A faithful reduction of the seed ``GBDTClassifier.fit``/predict paths,
    kept for golden equivalence against the copy-free vectorised ensemble.
    """

    def __init__(self, params: GBDTParams | None = None):
        self.params = params or GBDTParams()
        self.binner = QuantileBinner(max_bins=self.params.max_bins)
        self.trees_: list[SeedDecisionTree] = []
        self.tree_feature_subsets_: list[np.ndarray] = []
        self.base_score_: float = 0.0
        self.train_losses_: list[float] = []
        self.valid_losses_: list[float] = []

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        valid_features: np.ndarray | None = None,
        valid_labels: np.ndarray | None = None,
    ) -> "SeedGBDT":
        labels = np.asarray(labels, dtype=np.float64).ravel()
        features = np.asarray(features, dtype=np.float64)
        params = self.params
        rng = np.random.default_rng(params.seed)
        binned = self.binner.fit_transform(features)
        n, d = binned.shape

        use_valid = valid_features is not None
        if use_valid:
            valid_labels = np.asarray(valid_labels, dtype=np.float64).ravel()
            valid_binned = self.binner.transform(
                np.asarray(valid_features, dtype=np.float64)
            )

        prior = float(np.clip(labels.mean(), 1e-6, 1 - 1e-6))
        self.base_score_ = float(np.log(prior / (1.0 - prior)))
        raw = np.full(n, self.base_score_)
        if use_valid:
            valid_raw = np.full(valid_labels.shape[0], self.base_score_)

        best_valid = np.inf
        rounds_since_best = 0
        for _ in range(params.n_trees):
            prob = sigmoid(raw)
            gradients = prob - labels
            hessians = np.maximum(prob * (1.0 - prob), 1e-12)

            row_subset = None
            if params.subsample < 1.0:
                size = max(1, int(round(params.subsample * n)))
                row_subset = rng.choice(n, size=size, replace=False)
            col_subset = np.arange(d)
            if params.colsample < 1.0:
                size = max(1, int(round(params.colsample * d)))
                col_subset = np.sort(rng.choice(d, size=size, replace=False))

            tree = SeedDecisionTree(params.tree)
            tree.fit(
                binned[:, col_subset],
                gradients,
                hessians,
                max_bins=params.max_bins,
                sample_indices=row_subset,
            )
            self.trees_.append(tree)
            self.tree_feature_subsets_.append(col_subset)

            raw += params.learning_rate * tree.predict_value(
                binned[:, col_subset]
            )
            self.train_losses_.append(binary_cross_entropy(labels, sigmoid(raw)))

            if use_valid:
                valid_raw += params.learning_rate * tree.predict_value(
                    valid_binned[:, col_subset]
                )
                valid_loss = binary_cross_entropy(valid_labels,
                                                  sigmoid(valid_raw))
                self.valid_losses_.append(valid_loss)
                if valid_loss < best_valid - 1e-9:
                    best_valid = valid_loss
                    rounds_since_best = 0
                elif params.early_stopping_rounds:
                    rounds_since_best += 1
                    if rounds_since_best >= params.early_stopping_rounds:
                        break
        return self

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        binned = self.binner.transform(np.asarray(features, dtype=np.float64))
        raw = np.full(binned.shape[0], self.base_score_)
        for tree, cols in zip(self.trees_, self.tree_feature_subsets_):
            raw += self.params.learning_rate * tree.predict_value(
                binned[:, cols]
            )
        return raw

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision_function(features))

    def predict_leaves(self, features: np.ndarray) -> np.ndarray:
        binned = self.binner.transform(np.asarray(features, dtype=np.float64))
        leaves = np.empty((binned.shape[0], len(self.trees_)), dtype=np.int64)
        for t, (tree, cols) in enumerate(
            zip(self.trees_, self.tree_feature_subsets_)
        ):
            leaves[:, t] = tree.predict_leaf(binned[:, cols])
        return leaves
