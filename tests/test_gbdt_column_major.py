"""One copy of the bins: the column-major pack and bounded head products.

The packed dataset stores its bins column-major and the GBDT reads that
layout in place, so these tests pin two things:

* a fit on a column-major matrix grows the same trees, routes the same
  leaves and trains the same ``θ`` as a fit on a row-major copy of it,
  with and without row and column subsampling, in float32 and float64;
* ``LeafDesign @ θ`` in row blocks and ``Xᵀ @ v`` in tree groups equal
  the single-call products bit for bit, whatever the byte budget.

Two tracemalloc guards check what the layout and the budget are for:
the histogram builder keeps no ``(d, n)`` copy of a column-major matrix,
and a product over a design above the budget allocates the budget plus
O(n), not ``n_trees × n``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LightMIRMConfig
from repro.core.lightmirm import LightMIRMTrainer
from repro.gbdt import leaf_encoder
from repro.gbdt.binning import QuantileBinner
from repro.gbdt.boosting import GBDTClassifier, GBDTParams
from repro.gbdt.histogram import HistogramBuilder
from repro.gbdt.leaf_encoder import LeafDesign, leaf_encode_environments
from repro.gbdt.tree import DecisionTree, TreeParams
from repro.numerics import tree_order_sum


def column_major(binned: np.ndarray) -> np.ndarray:
    """``binned`` laid out as the pack stores it: the ``.T`` of ``(d, n)``."""
    return np.ascontiguousarray(binned.T).T


def _problem(seed: int, n: int, d: int, max_bins: int):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    logit = x[:, 0] - 0.7 * x[:, 1] + 0.3 * x[:, -1] ** 2
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.float64)
    binner = QuantileBinner(max_bins=max_bins).fit(x)
    groups = rng.integers(0, 3, n)
    return binner.transform(x), y, binner, groups


def _fit_and_encode(binned, y, binner, groups, params):
    model = GBDTClassifier(params).fit_binned(binned, y, binner)
    environments = leaf_encode_environments(model, binned, (
        (f"g{g}", np.flatnonzero(groups == g), y[groups == g])
        for g in range(3)))
    result = LightMIRMTrainer(LightMIRMConfig(n_epochs=4)).fit(environments)
    return model, environments, result


class TestColumnMajorFit:
    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16),
           dtype=st.sampled_from(["float32", "float64"]),
           subsample=st.sampled_from([1.0, 0.7]),
           colsample=st.sampled_from([1.0, 0.6]),
           per_feature_min_rows=st.sampled_from([64, 8192]))
    def test_trees_leaves_and_theta_match_a_row_major_copy(
            self, seed, dtype, subsample, colsample, per_feature_min_rows):
        binned, y, binner, groups = _problem(seed, 1_200, 6, 16)
        params = GBDTParams(n_trees=5, max_bins=16, subsample=subsample,
                            colsample=colsample, seed=seed, dtype=dtype,
                            tree=TreeParams(max_leaves=8,
                                            min_child_samples=10))
        with pytest.MonkeyPatch.context() as patch:
            # 64 sends most nodes to the per-feature kernel, 8192 all but
            # the full-row root to the fused one, on either layout.
            for layout in ("", "_COLUMN_MAJOR"):
                patch.setattr(HistogramBuilder,
                              f"{layout}_PER_FEATURE_MIN_ROWS",
                              per_feature_min_rows)
            rows_model, rows_envs, rows_result = _fit_and_encode(
                binned, y, binner, groups, params)
            cols_model, cols_envs, cols_result = _fit_and_encode(
                column_major(binned), y, binner, groups, params)
        for name in ("nodes", "leaf", "value", "roots"):
            a = getattr(rows_model.forest_, name)
            b = getattr(cols_model.forest_, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert rows_model.train_losses_ == cols_model.train_losses_
        for a, b in zip(rows_envs, cols_envs):
            np.testing.assert_array_equal(a.features.columns,
                                          b.features.columns)
        assert rows_result.theta.tobytes() == cols_result.theta.tobytes()

    def test_pack_layout_is_read_in_place(self):
        binned = column_major(_problem(0, 500, 4, 8)[0])
        builder = HistogramBuilder(binned, 8)
        assert np.shares_memory(builder._bins_t, binned)


class TestFitValues:
    @pytest.mark.parametrize("subsample", [False, True])
    def test_equal_routed_values(self, subsample):
        binned, y, _, _ = _problem(3, 800, 5, 16)
        g = y - 0.4
        h = np.full(y.size, 0.24)
        rows = np.arange(0, 800, 3) if subsample else None
        tree = DecisionTree(TreeParams(max_leaves=12, min_child_samples=5))
        tree.fit(column_major(binned), g, h, max_bins=16,
                 sample_indices=rows)
        routed = tree.predict_value(binned)
        # The first call reads the growth partition (when it held every
        # row), the second routes.
        for _ in range(2):
            assert tree.fit_values(binned).tobytes() == routed.tobytes()


def _design(rng, n, leaves):
    offsets = np.concatenate(([0], np.cumsum(leaves)))
    ids = np.stack([rng.integers(0, k, n) for k in leaves])
    return LeafDesign(ids + offsets[:-1, None], int(offsets[-1]))


class TestBoundedProducts:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 40),
           n_trees=st.integers(1, 6), max_leaves=st.integers(1, 5),
           cells=st.integers(1, 24))
    def test_blocks_equal_the_single_call(self, seed, n, n_trees,
                                          max_leaves, cells):
        rng = np.random.default_rng(seed)
        leaves = rng.integers(1, max_leaves + 1, n_trees)
        design = _design(rng, n, leaves)
        # Wide exponents make any change of summation order visible.
        scale = 10.0 ** rng.integers(-8, 9, design.n_columns)
        theta = rng.standard_normal(design.n_columns) * scale
        vector = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
        single_matvec = tree_order_sum(theta.take(design.columns))
        single_rmatvec = np.bincount(
            design.columns.ravel(), weights=np.tile(vector, n_trees),
            minlength=design.n_columns)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(leaf_encoder, "_PRODUCT_BYTES", 8 * cells)
            blocked_matvec = design @ theta
            blocked_rmatvec = design.T @ vector
        assert blocked_matvec.tobytes() == single_matvec.tobytes()
        assert blocked_rmatvec.tobytes() == single_rmatvec.tobytes()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestMemory:
    def test_histogram_builder_keeps_no_copy_of_a_column_major_matrix(self):
        n, d = 50_000, 200
        binned = np.random.default_rng(0).integers(0, 32, (d, n),
                                                   dtype=np.uint8).T
        g = np.linspace(-1.0, 1.0, n)
        h = np.full(n, 0.25)

        def build():
            HistogramBuilder(binned, 32).build(g, h, None)

        # Scratch is an intp row and the row ids, 8 bytes a row each.
        assert _traced_peak(build) < 0.25 * binned.nbytes
        row_major = np.ascontiguousarray(binned)
        assert _traced_peak(
            lambda: HistogramBuilder(row_major, 32)) >= row_major.nbytes

    def test_products_above_the_budget_stay_within_it(self, monkeypatch):
        n, n_trees, budget = 40_000, 25, 1 << 16
        design = _design(np.random.default_rng(1), n, np.full(n_trees, 7))
        theta = np.linspace(-1.0, 1.0, design.n_columns)
        vector = np.linspace(-1.0, 1.0, n)
        monkeypatch.setattr(leaf_encoder, "_PRODUCT_BYTES", budget)
        bound = budget + 4 * 8 * n + 16 * design.n_columns
        # The single call gathers 8 * n_trees * n bytes (8 MB here).
        assert 8 * n_trees * n > 5 * bound
        assert _traced_peak(lambda: design @ theta) < bound
        assert _traced_peak(lambda: design.T @ vector) < bound
