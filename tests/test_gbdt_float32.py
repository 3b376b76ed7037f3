"""The opt-in float32 hot path: golden-tolerance vs float64, dtype plumbing."""

import dataclasses

import numpy as np
import pytest

from repro.gbdt.boosting import GBDTClassifier, GBDTParams
from repro.metrics import auc_score, ks_score
from repro.perfbench.scale import (
    AUC_TOLERANCE,
    KS_TOLERANCE,
    dtype_tolerance_check,
    ScaleBenchConfig,
)


@pytest.fixture(scope="module")
def problem(small_split):
    return small_split.train, small_split.test


def _fit(train, dtype, **overrides):
    params = GBDTParams(n_trees=8, max_bins=32, dtype=dtype, **overrides)
    return GBDTClassifier(params).fit(train.features, train.labels)


class TestOptIn:
    def test_default_is_float64(self):
        assert GBDTParams().dtype == "float64"

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            GBDTParams(dtype="float16")

    def test_float64_path_unchanged_by_dtype_plumbing(self, problem):
        """Explicit float64 must equal the default bit for bit."""
        train, test = problem
        explicit = _fit(train, "float64")
        default = GBDTClassifier(
            GBDTParams(n_trees=8, max_bins=32)
        ).fit(train.features, train.labels)
        np.testing.assert_array_equal(
            explicit.predict_proba(test.features),
            default.predict_proba(test.features),
        )


class TestGoldenTolerance:
    def test_metrics_within_documented_tolerance(self, problem):
        train, test = problem
        scores = {
            dtype: _fit(train, dtype).predict_proba(test.features)
            for dtype in ("float64", "float32")
        }
        auc_delta = abs(auc_score(test.labels, scores["float64"])
                        - auc_score(test.labels, scores["float32"]))
        ks_delta = abs(ks_score(test.labels, scores["float64"])
                       - ks_score(test.labels, scores["float32"]))
        assert auc_delta <= AUC_TOLERANCE
        assert ks_delta <= KS_TOLERANCE

    def test_train_loss_trajectories_close(self, problem):
        train, _ = problem
        m64 = _fit(train, "float64")
        m32 = _fit(train, "float32")
        np.testing.assert_allclose(m64.train_losses_, m32.train_losses_,
                                   atol=5e-2)

    def test_tolerance_check_helper(self):
        config = ScaleBenchConfig.smoke()
        config = dataclasses.replace(config, row_counts=(4_000,))
        report = dtype_tolerance_check(config)
        assert report["passed"]
        assert report["auc_delta"] <= report["auc_tolerance"]
        assert set(report["float32"]) == {"auc", "ks"}


class TestDtypePlumbing:
    def test_float32_leaf_values_and_histograms(self, problem):
        train, _ = problem
        model = _fit(train, "float32")
        for tree in model.trees_:
            assert tree.forest.value.dtype == np.float32

    def test_float64_leaf_values_by_default(self, problem):
        train, _ = problem
        model = _fit(train, "float64")
        for tree in model.trees_:
            assert tree.forest.value.dtype == np.float64

    def test_predictions_are_finite_and_probabilistic(self, problem):
        train, test = problem
        proba = _fit(train, "float32").predict_proba(test.features)
        assert np.isfinite(proba).all()
        assert ((proba > 0) & (proba < 1)).all()

    def test_histogram_builder_validates_dtype(self, rng):
        from repro.gbdt.histogram import HistogramBuilder

        binned = rng.integers(0, 8, size=(64, 3)).astype(np.uint8)
        with pytest.raises(ValueError):
            HistogramBuilder(binned, 8, hist_dtype=np.int32)


class TestFitBinned:
    def test_matches_fit_on_same_binned_matrix(self, problem):
        train, test = problem
        reference = _fit(train, "float64")
        binned = reference.binner.transform(train.features)

        model = GBDTClassifier(GBDTParams(n_trees=8, max_bins=32))
        model.fit_binned(binned, train.labels, reference.binner)
        np.testing.assert_array_equal(
            model.predict_proba(test.features),
            reference.predict_proba(test.features),
        )

    def test_supports_early_stopping_on_binned_validation(self, problem):
        train, test = problem
        seed_model = _fit(train, "float64")
        train_binned = seed_model.binner.transform(train.features)
        valid_binned = seed_model.binner.transform(test.features)

        params = GBDTParams(n_trees=30, max_bins=32,
                            early_stopping_rounds=3)
        model = GBDTClassifier(params).fit_binned(
            train_binned, train.labels, seed_model.binner,
            valid_binned=valid_binned, valid_labels=test.labels,
        )
        assert model.is_fitted
        assert len(model.valid_losses_) == model.n_trees_fitted

    def test_rejects_unfitted_or_mismatched_binner(self, problem, rng):
        from repro.gbdt.binning import QuantileBinner

        train, _ = problem
        fitted = _fit(train, "float64")
        binned = fitted.binner.transform(train.features)

        model = GBDTClassifier(GBDTParams(n_trees=2, max_bins=32))
        with pytest.raises(ValueError, match="fitted"):
            model.fit_binned(binned, train.labels, QuantileBinner(32))
        with pytest.raises(ValueError, match="max_bins"):
            wrong = GBDTClassifier(GBDTParams(n_trees=2, max_bins=16))
            wrong.fit_binned(binned, train.labels, fitted.binner)
        with pytest.raises(ValueError, match="uint8"):
            model.fit_binned(binned.astype(np.int64), train.labels,
                             fitted.binner)
