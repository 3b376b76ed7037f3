"""Golden equivalence: vectorised GBDT kernels vs the preserved seed code.

The vectorised kernels (per-feature/fused histogram builder, flattened
struct-of-arrays tree routing, leaf-column encoding) are required to
reproduce the seed implementations in :mod:`tests.seed_reference`
*bit for bit* when given identical inputs: identical histogram sums,
identical splits and leaf values, identical probabilities.

The one deliberate behaviour change this PR made is sorting bagged row
subsets before histogram building (cache-friendly gathers).  Sorting
reorders float additions, which is mathematically a no-op but not
bitwise-guaranteed — so ensembles with ``subsample < 1`` are compared
structurally (identical splits and leaf routes) with probabilities at
tight tolerance, while every same-input comparison is exact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gbdt.binning import QuantileBinner
from repro.gbdt.boosting import GBDTClassifier, GBDTParams
from repro.gbdt.forest import Forest
from repro.gbdt.histogram import HistogramBuilder
from repro.gbdt.tree import DecisionTree, TreeParams
from repro.gbdt.leaf_encoder import encode_leaf_matrix
from repro.persist.codec import gbdt_from_dict, gbdt_to_dict

from tests import seed_reference as reference


def _problem(seed: int, n: int, d: int, max_bins: int,
             constant_cols: tuple[int, ...] = ()):
    """Binned matrix plus logloss-shaped gradient statistics."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    for c in constant_cols:
        x[:, c] = 1.37
    logit = x @ (rng.standard_normal(d) * 0.5)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
    binned = QuantileBinner(max_bins=max_bins).fit(x).transform(x)
    prob = np.full(n, float(y.mean()))
    gradients = prob - y
    hessians = np.maximum(prob * (1.0 - prob), 1e-12)
    return binned, gradients, hessians, x, y


def _assert_histograms_identical(ours, seed):
    np.testing.assert_array_equal(ours.grad, seed.grad)
    np.testing.assert_array_equal(ours.hess, seed.hess)
    np.testing.assert_array_equal(
        ours.count.astype(np.float64), seed.count.astype(np.float64)
    )


def _seed_forest(seed: reference.SeedDecisionTree,
                 ours: DecisionTree) -> Forest:
    """The seed tree's node list as a one-tree forest in ``ours``' input
    columns (a fitted tree keeps its forest, not its nodes)."""
    for node in seed._nodes:
        # The forest stores the left child; siblings are adjacent.
        assert node.is_leaf or node.right == node.left + 1
    return Forest.from_nodes(seed._nodes, seed.n_leaves, np.float64,
                             ours.column_subset, ours.forest.n_columns)


def _assert_trees_identical(ours: DecisionTree,
                            seed: reference.SeedDecisionTree):
    """Same column, threshold and left/right child per node, same leaf
    ids and bitwise-equal leaf values."""
    assert ours.n_leaves == seed.n_leaves
    golden = _seed_forest(seed, ours)
    for name in ("nodes", "leaf", "value", "roots"):
        np.testing.assert_array_equal(getattr(ours.forest, name),
                                      getattr(golden, name))
    assert ours.forest.value.dtype == golden.value.dtype
    assert ours.forest.depth == golden.depth


class TestHistogramKernel:
    """Same (rows, columns) inputs in, bit-identical sums out."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "n,d,max_bins",
        [
            (400, 5, 16),     # small node: fused-index kernel
            (9_000, 7, 32),   # large node: per-feature kernel
            (300, 1, 8),      # single feature
            (500, 4, 2),      # minimal bin budget
        ],
    )
    def test_full_matrix(self, seed, n, d, max_bins):
        binned, g, h, _, _ = _problem(seed, n, d, max_bins)
        rows = np.arange(n)
        ours = HistogramBuilder(binned, max_bins).build(g, h, rows)
        golden = reference.build_histogram_seed(binned, g, h, rows, max_bins)
        _assert_histograms_identical(ours, golden)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("k", [3, 200, 4_000, 8_500])
    def test_row_subsets_in_any_order(self, seed, k):
        # k spans both kernels (fused below 8192 rows, per-feature above);
        # the unsorted subset checks accumulation follows the given order.
        binned, g, h, _, _ = _problem(seed, 9_000, 6, 32)
        rng = np.random.default_rng(seed + 100)
        rows = rng.choice(9_000, size=k, replace=False)
        builder = HistogramBuilder(binned, 32)
        for subset in (rows, np.sort(rows)):
            ours = builder.build(g, h, subset)
            golden = reference.build_histogram_seed(binned, g, h, subset, 32)
            _assert_histograms_identical(ours, golden)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_column_subsets(self, seed):
        binned, g, h, _, _ = _problem(seed, 2_000, 8, 16)
        cols = np.array([0, 2, 3, 7])
        rows = np.random.default_rng(seed).choice(2_000, 900, replace=False)
        builder = HistogramBuilder(binned, 16)
        ours = builder.build(g, h, rows, column_subset=cols)
        golden = reference.build_histogram_seed(
            binned[:, cols], g, h, rows, 16
        )
        _assert_histograms_identical(ours, golden)

    def test_constant_columns(self):
        binned, g, h, _, _ = _problem(3, 1_000, 5, 16,
                                      constant_cols=(1, 4))
        assert binned[:, 1].max() == binned[:, 1].min()  # truly constant
        rows = np.arange(1_000)
        ours = HistogramBuilder(binned, 16).build(g, h, rows)
        golden = reference.build_histogram_seed(binned, g, h, rows, 16)
        _assert_histograms_identical(ours, golden)

    def test_full_row_fast_path_matches_explicit_arange(self):
        binned, g, h, _, _ = _problem(4, 9_500, 4, 32)
        builder = HistogramBuilder(binned, 32)
        via_arange = builder.build(g, h, np.arange(9_500))
        via_none = builder.build(g, h, None)
        _assert_histograms_identical(via_arange, via_none)

    def test_count_is_int32(self):
        binned, g, h, _, _ = _problem(5, 500, 3, 8)
        hist = HistogramBuilder(binned, 8).build(g, h, np.arange(500))
        assert hist.count.dtype == np.int32


#: Fused-kernel cell budgets: one column per block for any real node (1),
#: narrow ragged blocks (7, 100) and the shipped default.
_BLOCK_BUDGETS = [1, 7, 100, HistogramBuilder._FUSED_BLOCK_CELLS]


class TestBlockedFusedKernel:
    """The column-blocked small-node kernel is exact at every block shape."""

    @pytest.mark.parametrize("budget", _BLOCK_BUDGETS)
    @pytest.mark.parametrize("max_bins", [2, 256])
    @pytest.mark.parametrize("hist_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bagged", [False, True])
    def test_matches_seed(self, monkeypatch, budget, max_bins, hist_dtype,
                          bagged):
        monkeypatch.setattr(HistogramBuilder, "_FUSED_BLOCK_CELLS", budget)
        binned, g, h, _, _ = _problem(7, 1_500, 9, max_bins)
        cols = np.array([0, 2, 3, 5, 8]) if bagged else None
        sliced = binned if cols is None else binned[:, cols]
        builder = HistogramBuilder(binned, max_bins, hist_dtype=hist_dtype)
        rng = np.random.default_rng(budget)
        # 1 / 3 / 30 / 700-row nodes give blocks of 1 to 100 columns,
        # several with a ragged last block.
        for k in (1, 3, 30, 700):
            rows = rng.choice(1_500, size=k, replace=False)
            ours = builder.build(g, h, rows, column_subset=cols)
            golden = reference.build_histogram_seed(sliced, g, h, rows,
                                                    max_bins)
            assert ours.grad.dtype == hist_dtype
            np.testing.assert_array_equal(
                ours.grad, golden.grad.astype(hist_dtype))
            np.testing.assert_array_equal(
                ours.hess, golden.hess.astype(hist_dtype))
            np.testing.assert_array_equal(ours.count, golden.count)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        n_node=st.integers(1, 300),
        n_cols=st.integers(1, 12),
        budget=st.integers(1, 400),
        max_bins=st.sampled_from([2, 3, 17, 256]),
        bagged=st.booleans(),
    )
    def test_any_block_shape_matches_seed(self, seed, n_node, n_cols,
                                          budget, max_bins, bagged):
        rng = np.random.default_rng(seed)
        n = n_node + 50
        binned = rng.integers(0, max_bins, size=(n, n_cols), dtype=np.uint8)
        g = rng.standard_normal(n)
        h = rng.random(n) + 0.01
        rows = rng.choice(n, size=n_node, replace=False)
        cols = None
        sliced = binned
        if bagged:
            cols = np.sort(rng.choice(n_cols, size=max(1, n_cols // 2),
                                      replace=False))
            sliced = binned[:, cols]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(HistogramBuilder, "_FUSED_BLOCK_CELLS", budget)
            ours = HistogramBuilder(binned, max_bins).build(
                g, h, rows, column_subset=cols)
        golden = reference.build_histogram_seed(sliced, g, h, rows, max_bins)
        _assert_histograms_identical(ours, golden)

    @pytest.mark.parametrize("budget", [1, 7])
    def test_tree_and_bagged_ensemble_under_tiny_budget(self, monkeypatch,
                                                        budget):
        monkeypatch.setattr(HistogramBuilder, "_FUSED_BLOCK_CELLS", budget)
        binned, g, h, x, y = _problem(5, 2_500, 8, 16)
        params = TreeParams(max_leaves=15, min_child_samples=20)
        ours = DecisionTree(params).fit(binned, g, h, max_bins=16)
        golden = reference.SeedDecisionTree(params).fit(binned, g, h,
                                                        max_bins=16)
        _assert_trees_identical(ours, golden)

        gbdt_params = GBDTParams(n_trees=6, max_bins=16, colsample=0.7,
                                 seed=5)
        ours_gbdt = GBDTClassifier(gbdt_params).fit(x, y)
        golden_gbdt = reference.SeedGBDT(gbdt_params).fit(x, y)
        np.testing.assert_array_equal(ours_gbdt.train_losses_,
                                      golden_gbdt.train_losses_)
        np.testing.assert_array_equal(ours_gbdt.predict_proba(x),
                                      golden_gbdt.predict_proba(x))


class TestTreeGrowth:
    """Identical inputs grow identical trees, node by node."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_full_rows(self, seed):
        binned, g, h, _, _ = _problem(seed, 3_000, 6, 16)
        params = TreeParams(max_leaves=15, min_child_samples=20)
        ours = DecisionTree(params).fit(binned, g, h, max_bins=16)
        golden = reference.SeedDecisionTree(params).fit(binned, g, h,
                                                        max_bins=16)
        _assert_trees_identical(ours, golden)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("k", [1_200, 8_600])
    def test_same_row_subset_any_order(self, seed, k):
        binned, g, h, _, _ = _problem(seed, 9_000, 6, 32)
        rows = np.random.default_rng(seed + 7).choice(
            9_000, size=k, replace=False
        )
        params = TreeParams(max_leaves=12, min_child_samples=25)
        ours = DecisionTree(params).fit(binned, g, h, max_bins=32,
                                        sample_indices=rows)
        golden = reference.SeedDecisionTree(params).fit(
            binned, g, h, max_bins=32, sample_indices=rows
        )
        _assert_trees_identical(ours, golden)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_column_subset_matches_sliced_fit(self, seed):
        binned, g, h, _, _ = _problem(seed, 2_500, 8, 16)
        cols = np.array([1, 2, 5, 6])
        params = TreeParams(max_leaves=10, min_child_samples=20)
        ours = DecisionTree(params).fit(binned, g, h, max_bins=16,
                                        column_subset=cols)
        golden = reference.SeedDecisionTree(params).fit(
            binned[:, cols], g, h, max_bins=16
        )
        _assert_trees_identical(ours, golden)
        # Column-subset routing on the full matrix == routing the slice.
        np.testing.assert_array_equal(
            ours.predict_leaf(binned, columns=cols),
            golden.predict_leaf(binned[:, cols]),
        )

    def test_edge_problems_grow_identically(self):
        for n, d, mb, const in [(600, 1, 8, ()), (700, 5, 2, ()),
                                (800, 4, 16, (0, 2))]:
            binned, g, h, _, _ = _problem(11, n, d, mb, constant_cols=const)
            params = TreeParams(max_leaves=8, min_child_samples=10)
            ours = DecisionTree(params).fit(binned, g, h, max_bins=mb)
            golden = reference.SeedDecisionTree(params).fit(binned, g, h,
                                                            max_bins=mb)
            _assert_trees_identical(ours, golden)


class TestLeafRouting:
    """Flattened O(depth × n) descent == per-node mask loop."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_routes_match_seed_loop(self, seed):
        binned, g, h, _, _ = _problem(seed, 4_000, 6, 32)
        params = TreeParams(max_leaves=20)
        tree = DecisionTree(params).fit(binned, g, h, max_bins=32)
        seed_tree = reference.SeedDecisionTree(params).fit(binned, g, h,
                                                           max_bins=32)
        np.testing.assert_array_equal(
            tree.predict_leaf(binned),
            reference.predict_leaf_seed(seed_tree, binned),
        )

    def test_values_match_seed_loop(self):
        binned, g, h, _, _ = _problem(9, 2_000, 5, 16)
        tree = DecisionTree(TreeParams(max_leaves=12)).fit(binned, g, h,
                                                           max_bins=16)
        seed_tree = reference.SeedDecisionTree(
            TreeParams(max_leaves=12)
        ).fit(binned, g, h, max_bins=16)
        np.testing.assert_array_equal(tree.predict_value(binned),
                                      seed_tree.predict_value(binned))

    def test_single_leaf_tree_routes_everything_to_leaf_zero(self):
        # min_split_gain too high for any split: depth-0 flat tree.
        binned, g, h, _, _ = _problem(10, 300, 3, 8)
        params = TreeParams(max_leaves=2, min_split_gain=1e12)
        tree = DecisionTree(params).fit(binned, g, h, max_bins=8)
        assert tree.n_leaves == 1
        np.testing.assert_array_equal(tree.predict_leaf(binned),
                                      np.zeros(300, dtype=np.int64))


class TestEnsembleEquivalence:
    """GBDTClassifier (copy-free) vs the seed boosting loop."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("colsample", [1.0, 0.6])
    def test_exact_without_row_subsampling(self, seed, colsample):
        _, _, _, x, y = _problem(seed, 2_500, 8, 16)
        params = GBDTParams(n_trees=8, max_bins=16, colsample=colsample,
                            seed=seed)
        ours = GBDTClassifier(params).fit(x, y)
        golden = reference.SeedGBDT(params).fit(x, y)
        assert ours.base_score_ == golden.base_score_
        np.testing.assert_array_equal(ours.train_losses_,
                                      golden.train_losses_)
        np.testing.assert_array_equal(ours.predict_proba(x),
                                      golden.predict_proba(x))
        np.testing.assert_array_equal(ours.predict_leaves(x),
                                      golden.predict_leaves(x))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_exact_with_validation_and_early_stopping(self, seed):
        _, _, _, x, y = _problem(seed, 3_000, 8, 16)
        params = GBDTParams(n_trees=25, max_bins=16, colsample=0.7,
                            early_stopping_rounds=3, seed=seed)
        ours = GBDTClassifier(params).fit(x[:2400], y[:2400],
                                          valid_features=x[2400:],
                                          valid_labels=y[2400:])
        golden = reference.SeedGBDT(params).fit(x[:2400], y[:2400],
                                                valid_features=x[2400:],
                                                valid_labels=y[2400:])
        assert len(ours.trees_) == len(golden.trees_)  # same stop round
        np.testing.assert_array_equal(ours.valid_losses_,
                                      golden.valid_losses_)
        np.testing.assert_array_equal(ours.predict_proba(x),
                                      golden.predict_proba(x))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_row_subsampling_same_structure_tight_probabilities(self, seed):
        # Sorted bagging visits the same rows in a different order, so
        # sums agree mathematically but not bitwise; splits and routes
        # must still be identical.
        _, _, _, x, y = _problem(seed, 2_500, 8, 16)
        params = GBDTParams(n_trees=8, max_bins=16, subsample=0.75,
                            seed=seed)
        ours = GBDTClassifier(params).fit(x, y)
        golden = reference.SeedGBDT(params).fit(x, y)
        for a, b in zip(ours.trees_, golden.trees_, strict=True):
            # Packed (left child, column, threshold) of every node.
            np.testing.assert_array_equal(a.forest.nodes,
                                          _seed_forest(b, a).nodes)
        np.testing.assert_array_equal(ours.predict_leaves(x),
                                      golden.predict_leaves(x))
        np.testing.assert_allclose(ours.predict_proba(x),
                                   golden.predict_proba(x),
                                   rtol=1e-12, atol=1e-14)

    def test_row_subsampling_is_deterministic(self):
        _, _, _, x, y = _problem(6, 1_500, 6, 16)
        params = GBDTParams(n_trees=5, max_bins=16, subsample=0.8, seed=3)
        first = GBDTClassifier(params).fit(x, y)
        second = GBDTClassifier(params).fit(x, y)
        np.testing.assert_array_equal(first.predict_proba(x),
                                      second.predict_proba(x))
        np.testing.assert_array_equal(first.train_losses_,
                                      second.train_losses_)


class TestLeafEncoding:
    """Leaf-column design == the seed's COO→CSR round-trip."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matrices_identical(self, seed):
        rng = np.random.default_rng(seed)
        leaves_per_tree = rng.integers(2, 9, size=6)
        offsets = np.concatenate(([0], np.cumsum(leaves_per_tree)))
        leaf_matrix = np.column_stack(
            [rng.integers(0, c, size=500) for c in leaves_per_tree]
        )
        ours = encode_leaf_matrix(leaf_matrix, offsets)
        golden = reference.encode_leaves_seed(leaf_matrix, offsets)
        assert ours.shape == golden.shape
        assert ours.nnz == golden.nnz == 500 * len(leaves_per_tree)
        # One id per tree per row, in the seed's row-major column order.
        np.testing.assert_array_equal(ours.columns.T.ravel(), golden.indices)
        theta = rng.standard_normal(ours.shape[1])
        np.testing.assert_array_equal(ours @ theta, golden @ theta)


class TestPersistedFlatTrees:
    """Round-trip keeps the flattened arrays and exact predictions."""

    def test_round_trip_preserves_flat_routing(self):
        _, _, _, x, y = _problem(8, 1_500, 6, 16)
        params = GBDTParams(n_trees=4, max_bins=16, colsample=0.8, seed=8)
        model = GBDTClassifier(params).fit(x, y)
        restored = gbdt_from_dict(gbdt_to_dict(model))
        for tree in restored.trees_:
            assert tree._flat is not None  # flat arrays persisted
        np.testing.assert_array_equal(model.predict_proba(x),
                                      restored.predict_proba(x))
        np.testing.assert_array_equal(model.predict_leaves(x),
                                      restored.predict_leaves(x))


class TestSplitSearchGolden:
    """Vectorised ``_best_split`` vs the seed per-feature scan.

    The 2-D prefix-sum + flat-argmax search must reproduce the seed
    loop's choice exactly — same (feature, bin, gain) with bitwise-equal
    floats — including first-feature/first-bin tie-breaking, all-invalid
    nodes and below-threshold gains.
    """

    def _node(self, binned, gradients, hessians, max_bins):
        from repro.gbdt.tree import _Node

        rows = np.arange(binned.shape[0])
        node = _Node(node_id=0, depth=0, sample_indices=rows)
        node.histogram = HistogramBuilder(binned, max_bins).build(
            gradients, hessians, rows
        )
        return node

    def _assert_same_split(self, params, node):
        ours = DecisionTree(params)._best_split(node)
        seed = reference.best_split_seed(params, node)
        if seed is None:
            assert ours is None
            return
        assert ours is not None
        assert ours.feature == seed.feature
        assert ours.bin_threshold == seed.bin_threshold
        assert ours.gain == seed.gain  # bitwise: exact float equality
        assert ours.left_grad == seed.left_grad
        assert ours.left_hess == seed.left_hess
        assert ours.left_count == seed.left_count

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_histograms(self, seed):
        binned, gradients, hessians, _, _ = _problem(
            seed, n=400, d=7, max_bins=16
        )
        node = self._node(binned, gradients, hessians, max_bins=16)
        self._assert_same_split(
            TreeParams(min_child_samples=5), node
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_tight_constraints(self, seed):
        # High min_child_samples / hessian floors invalidate most bins,
        # exercising the masked-gain path on both sides.
        binned, gradients, hessians, _, _ = _problem(
            100 + seed, n=120, d=5, max_bins=8
        )
        node = self._node(binned, gradients, hessians, max_bins=8)
        self._assert_same_split(
            TreeParams(min_child_samples=40, min_child_hessian=1.0), node
        )

    def test_all_invalid_returns_none(self):
        binned, gradients, hessians, _, _ = _problem(
            3, n=60, d=4, max_bins=8
        )
        node = self._node(binned, gradients, hessians, max_bins=8)
        params = TreeParams(min_child_samples=50)  # no bin can satisfy both
        assert reference.best_split_seed(params, node) is None
        assert DecisionTree(params)._best_split(node) is None

    def test_too_few_samples_returns_none(self):
        binned, gradients, hessians, _, _ = _problem(
            4, n=30, d=3, max_bins=8
        )
        node = self._node(binned, gradients, hessians, max_bins=8)
        params = TreeParams(min_child_samples=20)  # 30 < 2 * 20
        assert reference.best_split_seed(params, node) is None
        assert DecisionTree(params)._best_split(node) is None

    def test_huge_min_split_gain_returns_none(self):
        binned, gradients, hessians, _, _ = _problem(
            5, n=200, d=4, max_bins=8
        )
        node = self._node(binned, gradients, hessians, max_bins=8)
        params = TreeParams(min_child_samples=5, min_split_gain=1e9)
        assert reference.best_split_seed(params, node) is None
        assert DecisionTree(params)._best_split(node) is None

    def test_duplicate_features_tie_break_on_first(self):
        # Duplicating the most informative column creates exactly equal
        # gains in two feature rows; both searches must keep the first.
        binned, gradients, hessians, _, _ = _problem(
            6, n=300, d=4, max_bins=8
        )
        binned = np.concatenate([binned, binned], axis=1)
        node = self._node(binned, gradients, hessians, max_bins=8)
        params = TreeParams(min_child_samples=5)
        ours = DecisionTree(params)._best_split(node)
        seed = reference.best_split_seed(params, node)
        assert ours is not None and seed is not None
        assert ours.feature == seed.feature < 4
        assert ours.bin_threshold == seed.bin_threshold
        assert ours.gain == seed.gain

    def test_max_depth_cap_returns_none(self):
        binned, gradients, hessians, _, _ = _problem(
            7, n=200, d=3, max_bins=8
        )
        node = self._node(binned, gradients, hessians, max_bins=8)
        node.depth = 2
        params = TreeParams(min_child_samples=5, max_depth=2)
        assert reference.best_split_seed(params, node) is None
        assert DecisionTree(params)._best_split(node) is None
