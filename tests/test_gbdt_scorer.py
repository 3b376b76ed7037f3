"""The compiled scorer scores raw rows bit for bit as the layered path does.

The layered path bins raw rows (:class:`~repro.gbdt.binning.QuantileBinner`),
routes the bins (:meth:`~repro.gbdt.forest.Forest.predict_leaves`), one-hots
the leaves (:func:`~repro.gbdt.leaf_encoder.encode_leaf_matrix`) and applies
the head (:meth:`~repro.models.logistic.LogisticModel.predict_proba`).
:class:`~repro.gbdt.scorer.CompiledScorer` must agree with it exactly on
hand-built forests (single-leaf trees, byte thresholds past a column's last
edge) and on fitted float32 and float64 models with feature bagging, for
rows holding edge values, values past the last edge, ±0.0 and subnormals,
in process, after a registry round trip and attached from shared memory.
"""

from __future__ import annotations

import json
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gbdt.binning import QuantileBinner
from repro.gbdt.boosting import GBDTClassifier, GBDTParams
from repro.gbdt.forest import Forest
from repro.gbdt.leaf_encoder import LeafIndexEncoder, encode_leaf_matrix
from repro.gbdt.scorer import CompiledScorer
from repro.gbdt.tree import TreeParams
from repro.models.logistic import LogisticModel
from repro.numerics import sigmoid
from repro.persist.codec import gbdt_to_dict
from repro.serve.registry import ModelRegistry
from repro.serve.shm_publish import attach_model, publish_model

#: Values whose binning is easy to get wrong: signed zeros, subnormals,
#: the extremes of the float range.
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                    2.2250738585072014e-308, 1e300, -1e300,
                    np.finfo(np.float64).max, -np.finfo(np.float64).max])


def _theta(rng: np.random.Generator, n: int) -> np.ndarray:
    """A head whose entries span many magnitudes, so any change in the
    order the trees' terms are added changes the sum's bits."""
    return rng.standard_normal(n) * 10.0 ** rng.integers(-6, 2, n)


def _rows(rng, edges, n_rows: int, dtype) -> np.ndarray:
    """Normal rows with about half their cells replaced by an edge, the
    float next to one (either side), or a :data:`SPECIAL` value; all of
    them finite in ``dtype``."""
    rows = rng.standard_normal((n_rows, len(edges)))
    for column, column_edges in enumerate(edges):
        with np.errstate(over="ignore"):
            pool = np.concatenate([
                SPECIAL, column_edges,
                np.nextafter(column_edges, np.inf),
                np.nextafter(column_edges, -np.inf),
            ])
        pool = pool[np.abs(pool) <= np.finfo(dtype).max]
        picked = rng.random(n_rows) < 0.5
        rows[picked, column] = rng.choice(pool, int(picked.sum()))
    return rows.astype(dtype)


def _layered(forest: Forest, edges, theta, rows) -> np.ndarray:
    """Bin, route, encode, head: the training code's logits."""
    binner = QuantileBinner()
    binner.bin_edges_ = list(edges)
    leaves = forest.predict_leaves(binner.transform(rows))
    design = encode_leaf_matrix(leaves, forest.leaf_offsets)
    return LogisticModel(theta.size).logits(theta, design)


def _compiled(forest: Forest, edges, theta) -> CompiledScorer:
    """The scorer over a per-column edge list, stored as an artifact
    stores it: concatenated edges and column offsets."""
    return CompiledScorer(forest, np.concatenate(edges),
                          np.cumsum([0] + [len(e) for e in edges]), theta)


def _assert_scores(scorer: CompiledScorer, rows, logits) -> None:
    """Logits and probabilities equal the layered path's, bit for bit."""
    np.testing.assert_array_equal(scorer.logits(rows), logits)
    np.testing.assert_array_equal(scorer.predict_proba(rows),
                                  sigmoid(logits))


def _random_tree(rng, max_depth: int, n_columns: int) -> Forest:
    """One tree in the forest layout: children appended pairwise after
    their parent, leaves self-looping at byte threshold 255."""
    left, column, threshold, depth_of = [0], [0], [255], [0]
    leaf = [-1]
    frontier, next_leaf = [0], 0
    while frontier:
        node = frontier.pop(0)
        if depth_of[node] < max_depth and rng.random() < 0.7:
            child = len(left)
            left[node], column[node] = child, int(rng.integers(n_columns))
            # Thresholds up to 254: many lie past a column's last edge.
            threshold[node] = int(rng.integers(0, 8)) \
                if rng.random() < 0.8 else int(rng.integers(8, 255))
            for offset in (0, 1):
                left.append(child + offset)
                column.append(0)
                threshold.append(255)
                leaf.append(-1)
                depth_of.append(depth_of[node] + 1)
                frontier.append(child + offset)
        else:
            leaf[node], next_leaf = next_leaf, next_leaf + 1
    left = np.array(left, dtype=np.int64)
    nodes = (left << 32) | (np.array(column, dtype=np.int64) << 8) \
        | np.array(threshold, dtype=np.int64)
    is_leaf = np.array(leaf) >= 0
    return Forest(nodes=nodes, leaf=np.array(leaf, dtype=np.int32),
                  value=np.zeros(next_leaf),
                  roots=np.array([0, nodes.size], dtype=np.int64),
                  depth=int(np.array(depth_of)[is_leaf].max()),
                  n_columns=n_columns)


class TestHandBuiltForests:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n_trees=st.integers(1, 6),
           max_depth=st.integers(0, 4), n_columns=st.integers(1, 5),
           n_rows=st.integers(0, 30),
           dtype=st.sampled_from([np.float64, np.float32]))
    def test_compiled_equals_layered(self, seed, n_trees, max_depth,
                                     n_columns, n_rows, dtype):
        rng = np.random.default_rng(seed)
        forest = Forest.stack([_random_tree(rng, max_depth, n_columns)
                               for _ in range(n_trees)])
        # Ascending edges, some columns with none; SPECIAL values among
        # them so rows land exactly on signed zeros and subnormals.
        edges = [np.unique(rng.choice(
            np.concatenate([SPECIAL, rng.standard_normal(6)]),
            int(rng.integers(0, 8)))) for _ in range(n_columns)]
        theta = _theta(rng, int(forest.leaf_offsets[-1]))
        rows = _rows(rng, edges, n_rows, dtype)
        _assert_scores(_compiled(forest, edges, theta), rows,
                       _layered(forest, edges, theta, rows))


def _fitted(seed: int, dtype: str, colsample: float,
            min_child_samples: int) -> GBDTClassifier:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((180, 5))
    x[:, 4] = np.round(x[:, 4])  # ties on a few values: repeated edges
    y = (rng.random(180) < 1 / (1 + np.exp(-x[:, 0] + x[:, 1]))).astype(float)
    params = GBDTParams(n_trees=5, max_bins=8, dtype=dtype,
                        colsample=colsample, seed=seed,
                        tree=TreeParams(max_leaves=6,
                                        min_child_samples=min_child_samples))
    return GBDTClassifier(params).fit(x, y)


def _payload(model: GBDTClassifier, theta: np.ndarray) -> dict:
    return {"version": 2, "trainer_name": "ERM", "gbdt": gbdt_to_dict(model),
            "theta": theta.tolist(), "l2": 0.0, "metadata": {}}


class TestFittedModels:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16),
           dtype=st.sampled_from(["float64", "float32"]),
           colsample=st.sampled_from([1.0, 0.4]),
           min_child_samples=st.sampled_from([10, 100]),
           n_rows=st.integers(0, 40),
           row_dtype=st.sampled_from([np.float64, np.float32]))
    def test_in_process_loaded_and_attached(self, seed, dtype, colsample,
                                            min_child_samples, n_rows,
                                            row_dtype):
        model = _fitted(seed, dtype, colsample, min_child_samples)
        rng = np.random.default_rng(seed + 1)
        theta = _theta(rng, int(model.forest_.leaf_offsets[-1]))
        rows = _rows(rng, model.binner.bin_edges_, n_rows, row_dtype)
        expected = LogisticModel(theta.size).logits(
            theta, LeafIndexEncoder(model).transform(rows))

        _assert_scores(_compiled(model.forest_, model.binner.bin_edges_,
                                 theta), rows, expected)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "model.json"
            path.write_text(json.dumps(_payload(model, theta)))
            registry = ModelRegistry(pathlib.Path(tmp) / "registry")
            registry.import_file(path)
            loaded = registry.load()
        _assert_scores(loaded.scorer, rows, expected)
        np.testing.assert_array_equal(loaded.predict_proba(rows),
                                      sigmoid(expected))
        pack = publish_model(loaded)
        try:
            attached, worker_pack = attach_model(pack.spec)
            _assert_scores(attached.scorer, rows, expected)
            worker_pack.close()
        finally:
            pack.dispose()


@pytest.fixture(scope="module")
def wide_model():
    """40 trees: a routing block of 409 rows."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1_500, 12))
    y = (rng.random(1_500) < 1 / (1 + np.exp(-x[:, 0]))).astype(float)
    model = GBDTClassifier(GBDTParams(
        n_trees=40, max_bins=32, colsample=0.7, seed=7,
        tree=TreeParams(max_leaves=8))).fit(x, y)
    theta = _theta(rng, int(model.forest_.leaf_offsets[-1]))
    return model, theta, _compiled(model.forest_, model.binner.bin_edges_,
                                   theta)


def _layered_logits(model: GBDTClassifier, theta, rows) -> np.ndarray:
    return LogisticModel(theta.size).logits(
        theta, LeafIndexEncoder(model).transform(rows))


class TestBlocks:
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_rows_around_two_blocks(self, wide_model, extra):
        model, theta, scorer = wide_model
        n = 2 * model.forest_.block_rows + extra  # extra 1: a 1-row block
        rows = _rows(np.random.default_rng(n), model.binner.bin_edges_, n,
                     np.float64)
        _assert_scores(scorer, rows, _layered_logits(model, theta, rows))

    @pytest.mark.parametrize("n_rows", [1, 2, 50])
    def test_logits_add_trees_in_order(self, wide_model, n_rows):
        model, theta, scorer = wide_model
        rows = np.random.default_rng(n_rows).standard_normal((n_rows, 12))
        columns = LeafIndexEncoder(model).transform(rows).columns
        expected = theta[columns[0]]
        for tree_columns in columns[1:]:
            expected = expected + theta[tree_columns]
        np.testing.assert_array_equal(scorer.logits(rows), expected)

    def test_with_theta_shares_routing(self, wide_model):
        model, theta, scorer = wide_model
        other = theta[::-1].copy()
        rows = np.random.default_rng(0).standard_normal((50, 12))
        _assert_scores(scorer.with_theta(other), rows,
                       _layered_logits(model, other, rows))
        # The original head is untouched.
        _assert_scores(scorer, rows, _layered_logits(model, theta, rows))


class TestErrors:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_as_the_binner_does(self, wide_model, bad):
        model, _, scorer = wide_model
        rows = np.zeros((3, 12))
        rows[1, 4] = bad
        with pytest.raises(ValueError, match="finite") as compiled:
            scorer.predict_proba(rows)
        with pytest.raises(ValueError) as layered:
            model.bin_features(rows)
        assert str(compiled.value) == str(layered.value)

    @pytest.mark.parametrize("rows", [np.zeros(12), np.zeros((2, 11))])
    def test_shape_errors_match_the_binner(self, wide_model, rows):
        model, _, scorer = wide_model
        with pytest.raises(ValueError) as compiled:
            scorer.predict_proba(rows)
        with pytest.raises(ValueError) as layered:
            model.bin_features(rows)
        assert str(compiled.value) == str(layered.value)

    def test_theta_must_cover_every_leaf(self, wide_model):
        model, theta, scorer = wide_model
        with pytest.raises(ValueError, match="leaves"):
            scorer.with_theta(theta[:-1])
        with pytest.raises(ValueError, match="edge offsets"):
            _compiled(model.forest_, model.binner.bin_edges_[:-1], theta)
