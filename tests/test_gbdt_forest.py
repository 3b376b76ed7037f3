"""The forest is the fitted GBDT: equivalence, persistence and load cost.

A fitted ensemble predicts from one :class:`~repro.gbdt.forest.Forest`
that routes every tree in one pass.  These tests hold it bit for bit to
two oracles: the seed per-node mask loop
(:func:`tests.seed_reference.predict_leaf_seed`) walking each fitted
tree's own nodes, and a per-tree ``raw += lr * value`` loop written here.
The forest arrays are byte-equal in the fitted, registry-loaded and
shm-attached models, and loading costs the same number of Python calls
whatever the tree count.  Nothing here reads a clock.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.erm import ERMTrainer
from repro.explain import head_feature_attribution
from repro.gbdt.boosting import GBDTClassifier, GBDTParams
from repro.gbdt.tree import DecisionTree, TreeParams, _Node
from repro.numerics import sigmoid
from repro.pipeline.pipeline import LoanDefaultPipeline
from repro.serve.registry import ModelRegistry
from repro.serve.shm_publish import attach_model, publish_model
from repro.train.base import BaseTrainConfig

from tests import seed_reference as reference

FOREST_FIELDS = ("nodes", "leaf", "value", "roots")


def _problem(seed: int, n: int, d: int):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    logit = x @ (rng.standard_normal(d) * 0.8)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
    return x, y


def _seed_nodes(tree: DecisionTree) -> list[_Node]:
    """A fitted tree's nodes, decoded from its own one-tree forest, for
    the seed router (a node's feature is its input column)."""
    forest = tree.forest
    nodes = []
    for node_id, (packed, leaf) in enumerate(
            zip(forest.nodes.tolist(), forest.leaf.tolist())):
        node = _Node(node_id=node_id, depth=0, leaf_index=leaf)
        if leaf < 0:
            node.feature = (packed >> 8) & 0xFFFFFF
            node.bin_threshold = packed & 255
            node.left = packed >> 32
            node.right = node.left + 1
        nodes.append(node)
    return nodes


def _oracle(model: GBDTClassifier, binned: np.ndarray):
    """Leaves and the raw score, one fitted tree at a time."""
    leaves = []
    raw = np.full(binned.shape[0], model.base_score_)
    for tree in model.trees_:
        tree_leaves = reference.predict_leaf_seed(
            SimpleNamespace(_nodes=_seed_nodes(tree)), binned)
        values = tree.forest.value
        assert values.dtype == model.params.dtype
        raw += model.params.learning_rate * values[tree_leaves]
        leaves.append(tree_leaves)
    return np.column_stack(leaves), raw


def _assert_matches_oracle(model: GBDTClassifier, binned: np.ndarray):
    leaves, raw = _oracle(model, binned)
    ours = model.predict_leaves_binned(binned)
    assert ours.dtype == np.int32
    np.testing.assert_array_equal(ours, leaves)
    np.testing.assert_array_equal(model.decision_function_binned(binned), raw)
    np.testing.assert_array_equal(model.predict_proba_binned(binned),
                                  sigmoid(raw))


class TestEquivalence:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        dtype=st.sampled_from(["float64", "float32"]),
        colsample=st.sampled_from([1.0, 0.5]),
        subsample=st.sampled_from([1.0, 0.7]),
        early_stopping=st.booleans(),
        max_leaves=st.sampled_from([2, 3, 8]),
        min_split_gain=st.sampled_from([1e-7, 2.0]),
        n_rows=st.integers(1, 40),
    )
    def test_fitted_forest_matches_per_tree_oracles(
            self, seed, dtype, colsample, subsample, early_stopping,
            max_leaves, min_split_gain, n_rows):
        x, y = _problem(seed, 240, 5)
        params = GBDTParams(
            n_trees=6, max_bins=16, dtype=dtype, colsample=colsample,
            subsample=subsample, seed=seed,
            early_stopping_rounds=2 if early_stopping else 0,
            tree=TreeParams(max_leaves=max_leaves, min_child_samples=10,
                            min_split_gain=min_split_gain),
        )
        valid = dict(valid_features=x[180:], valid_labels=y[180:]) \
            if early_stopping else {}
        model = GBDTClassifier(params).fit(x[:180], y[:180], **valid)
        assert model.forest_.value.dtype == np.dtype(dtype)
        rows = np.random.default_rng(seed).standard_normal((n_rows, 5))
        _assert_matches_oracle(model, model.bin_features(rows))

    def test_single_leaf_trees_among_split_ones(self):
        # One informative column of four; a tree bagged onto a constant
        # column has no split.
        x, y = _problem(4, 300, 4)
        x[:, 1:] = 0.5
        params = GBDTParams(n_trees=8, max_bins=16, colsample=0.25, seed=1,
                            tree=TreeParams(max_leaves=4))
        model = GBDTClassifier(params).fit(x, y)
        sizes = model.leaves_per_tree()
        assert 1 in sizes and max(sizes) > 1
        _assert_matches_oracle(model, model.bin_features(x))

    def test_every_tree_a_single_leaf(self):
        x, y = _problem(5, 100, 3)
        params = GBDTParams(n_trees=3, max_bins=8,
                            tree=TreeParams(min_child_samples=60))
        model = GBDTClassifier(params).fit(x, y)
        assert model.forest_.depth == 0
        assert model.leaves_per_tree() == [1, 1, 1]
        _assert_matches_oracle(model, model.bin_features(x))


class TestRowBlocks:
    """Row counts around the routing block size."""

    @pytest.fixture(scope="class")
    def model(self):
        x, y = _problem(7, 1_500, 12)
        params = GBDTParams(n_trees=40, max_bins=32, colsample=0.7, seed=7,
                            tree=TreeParams(max_leaves=8))
        return GBDTClassifier(params).fit(x, y)

    def test_block_keeps_node_matrix_within_128_kib(self, model):
        forest = model.forest_
        assert forest.block_rows == (1 << 17) // (8 * forest.n_trees)

    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    def test_rows_around_block(self, model, offset):
        block = model.forest_.block_rows
        n = 1 if offset is None else block + offset
        binned = np.random.default_rng(n).integers(
            0, 32, size=(n, 12), dtype=np.uint8)
        _assert_matches_oracle(model, binned)


def _pipeline(gbdt: GBDTParams, split) -> LoanDefaultPipeline:
    return LoanDefaultPipeline(ERMTrainer(BaseTrainConfig(n_epochs=3)),
                               gbdt_params=gbdt).fit(split.train)


@pytest.fixture(scope="module")
def float32_pipeline(small_split):
    return _pipeline(GBDTParams(n_trees=12, colsample=0.7, dtype="float32"),
                     small_split)


def _restored(pipeline, tmp_path):
    """The pipeline's scorer loaded from a registry and attached from shm."""
    registry = ModelRegistry(tmp_path / "registry")
    registry.save(pipeline)
    loaded = registry.load()
    pack = publish_model(loaded)
    attached, worker_pack = attach_model(pack.spec)
    return loaded, attached, [worker_pack, pack]


class TestPersistence:
    def test_float32_models_round_trip_bit_identically(
            self, float32_pipeline, small_split, tmp_path):
        fitted = float32_pipeline.extractor.model_
        x = small_split.test.features
        loaded, attached, packs = _restored(float32_pipeline, tmp_path)
        try:
            for scorer in (loaded, attached):
                gbdt = scorer.encoder.model
                assert gbdt.params.dtype == "float32"
                assert gbdt.forest_.value.dtype == np.float32
                np.testing.assert_array_equal(
                    gbdt.decision_function(x), fitted.decision_function(x))
                np.testing.assert_array_equal(
                    gbdt.predict_proba(x), fitted.predict_proba(x))
                np.testing.assert_array_equal(
                    gbdt.predict_leaves(x), fitted.predict_leaves(x))
                binned = fitted.bin_features(x)
                np.testing.assert_array_equal(
                    gbdt.decision_function_binned(binned),
                    fitted.decision_function_binned(binned))
                np.testing.assert_array_equal(
                    scorer.predict_proba(x),
                    float32_pipeline.predict_proba(small_split.test))
        finally:
            packs[0].close()
            packs[1].dispose()

    def test_forest_arrays_are_byte_equal_everywhere(
            self, float32_pipeline, tmp_path):
        fitted = float32_pipeline.extractor.model_.forest_
        loaded, attached, packs = _restored(float32_pipeline, tmp_path)
        try:
            for scorer in (loaded, attached):
                forest = scorer.encoder.model.forest_
                assert (forest.depth, forest.n_columns) == \
                    (fitted.depth, fitted.n_columns)
                for name in FOREST_FIELDS:
                    ours, theirs = getattr(forest, name), getattr(fitted, name)
                    assert ours.dtype == theirs.dtype
                    assert ours.tobytes() == theirs.tobytes()
        finally:
            packs[0].close()
            packs[1].dispose()

    def test_restored_model_has_no_feature_importance(
            self, float32_pipeline, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save(float32_pipeline)
        with pytest.raises(RuntimeError, match="histograms"):
            registry.load().encoder.model.feature_importance()

    def test_attribution_on_restored_model_equals_fitted(
            self, fitted_pipeline, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save(fitted_pipeline)
        loaded = registry.load()
        np.testing.assert_array_equal(
            head_feature_attribution(loaded.encoder.model, loaded.theta),
            head_feature_attribution(fitted_pipeline.extractor,
                                     fitted_pipeline.result_.theta),
        )


def _python_calls(fn) -> list[str]:
    """Names of the Python functions entered while ``fn`` runs."""
    calls: list[str] = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class TestLoadCost:
    """Loading a model costs the same Python calls at 4 and at 40 trees."""

    @pytest.fixture(scope="class")
    def registries(self, small_split, tmp_path_factory):
        roots = {}
        for n_trees in (4, 40):
            pipeline = _pipeline(
                GBDTParams(n_trees=n_trees, early_stopping_rounds=0),
                small_split)
            assert pipeline.extractor.model_.n_trees_fitted == n_trees
            roots[n_trees] = tmp_path_factory.mktemp(f"trees{n_trees}")
            ModelRegistry(roots[n_trees]).save(pipeline)
        return roots

    def test_registry_load_calls_do_not_grow_with_trees(self, registries):
        counts = {}
        for n_trees, root in registries.items():
            registry = ModelRegistry(root)
            registry.load()  # first-use imports happen here
            calls = _python_calls(registry.load)
            assert calls.count("_read_index") == 1
            counts[n_trees] = len(calls)
        assert counts[4] == counts[40], counts

    def test_attach_calls_do_not_grow_with_trees(self, registries):
        counts = {}
        for n_trees, root in registries.items():
            pack = publish_model(ModelRegistry(root).load())
            try:
                attach_model(pack.spec)[1].close()  # first-use imports
                attached = []
                calls = _python_calls(
                    lambda: attached.append(attach_model(pack.spec)))
                attached[0][1].close()
            finally:
                pack.dispose()
            counts[n_trees] = len(calls)
        assert counts[4] == counts[40], counts


def test_forest_rejects_binned_rows_of_another_width():
    x, y = _problem(1, 200, 4)
    model = GBDTClassifier(GBDTParams(n_trees=2, max_bins=8)).fit(x, y)
    with pytest.raises(ValueError, match="binned rows"):
        model.forest_.predict_leaves(np.zeros((3, 5), dtype=np.uint8))

