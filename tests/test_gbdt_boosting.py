"""Unit tests for the boosted classifier."""

import numpy as np
import pytest

from repro.gbdt.boosting import GBDTClassifier, GBDTParams
from repro.gbdt.tree import TreeParams
from repro.metrics.auc import auc_score


def _classification_problem(rng, n=800, d=5):
    x = rng.standard_normal((n, d))
    logit = 1.5 * x[:, 0] - x[:, 1] + 0.5 * x[:, 2] * x[:, 0]
    y = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(float)
    y[:2] = [0, 1]
    return x, y


class TestFit:
    def test_train_loss_decreases(self, rng):
        x, y = _classification_problem(rng)
        model = GBDTClassifier(GBDTParams(n_trees=20))
        model.fit(x, y)
        losses = model.train_losses_
        assert losses[-1] < losses[0]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_learns_nonlinear_signal(self, rng):
        x, y = _classification_problem(rng, n=1600)
        train_x, train_y = x[:800], y[:800]
        holdout_x, holdout_y = x[800:], y[800:]
        model = GBDTClassifier(GBDTParams(n_trees=40))
        model.fit(train_x, train_y)
        assert auc_score(holdout_y, model.predict_proba(holdout_x)) > 0.8

    def test_early_stopping_triggers(self, rng):
        x, y = _classification_problem(rng, n=300)
        vx, vy = _classification_problem(np.random.default_rng(1), n=200)
        model = GBDTClassifier(
            GBDTParams(n_trees=200, early_stopping_rounds=5,
                       learning_rate=0.3)
        )
        model.fit(x, y, vx, vy)
        assert model.n_trees_fitted < 200

    def test_base_score_is_prior_log_odds(self, rng):
        x, y = _classification_problem(rng)
        model = GBDTClassifier(GBDTParams(n_trees=1))
        model.fit(x, y)
        prior = y.mean()
        assert model.base_score_ == pytest.approx(
            np.log(prior / (1 - prior))
        )

    def test_subsampling_reproducible(self, rng):
        x, y = _classification_problem(rng)
        params = GBDTParams(n_trees=10, subsample=0.6, colsample=0.6, seed=7)
        m1 = GBDTClassifier(params).fit(x, y)
        m2 = GBDTClassifier(params).fit(x, y)
        np.testing.assert_allclose(
            m1.predict_proba(x), m2.predict_proba(x)
        )

    def test_probabilities_in_unit_interval(self, rng):
        x, y = _classification_problem(rng)
        model = GBDTClassifier(GBDTParams(n_trees=15)).fit(x, y)
        p = model.predict_proba(x)
        assert np.all((p > 0) & (p < 1))


class TestLeaves:
    def test_leaf_matrix_shape_and_range(self, rng):
        x, y = _classification_problem(rng)
        model = GBDTClassifier(GBDTParams(n_trees=8)).fit(x, y)
        leaves = model.predict_leaves(x)
        assert leaves.shape == (x.shape[0], 8)
        for t, n_leaves in enumerate(model.leaves_per_tree()):
            assert leaves[:, t].min() >= 0
            assert leaves[:, t].max() < n_leaves

    def test_leaves_deterministic_for_same_input(self, rng):
        x, y = _classification_problem(rng)
        model = GBDTClassifier(GBDTParams(n_trees=5)).fit(x, y)
        np.testing.assert_array_equal(
            model.predict_leaves(x[:10]), model.predict_leaves(x[:10])
        )


class TestFeatureImportance:
    def test_signal_features_dominate_noise(self, rng):
        x, y = _classification_problem(rng)
        model = GBDTClassifier(GBDTParams(n_trees=20)).fit(x, y)
        importance = model.feature_importance()
        assert importance[:2].sum() > importance[3:].sum()


class TestValidation:
    def test_unfitted_raises(self):
        model = GBDTClassifier()
        with pytest.raises(RuntimeError):
            model.predict_proba(np.zeros((1, 2)))
        with pytest.raises(RuntimeError):
            model.predict_leaves(np.zeros((1, 2)))

    def test_empty_data_raises(self):
        with pytest.raises(ValueError):
            GBDTClassifier().fit(np.zeros((0, 2)), np.zeros(0))

    def test_non_binary_labels_raise(self, rng):
        with pytest.raises(ValueError):
            GBDTClassifier().fit(rng.standard_normal((10, 2)),
                                 np.arange(10.0))

    def test_mismatched_shapes_raise(self, rng):
        with pytest.raises(ValueError):
            GBDTClassifier().fit(rng.standard_normal((10, 2)), np.zeros(9))

    def test_valid_features_without_labels_raise(self, rng):
        x, y = _classification_problem(rng, n=50)
        with pytest.raises(ValueError):
            GBDTClassifier().fit(x, y, valid_features=x)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GBDTParams(n_trees=0)
        with pytest.raises(ValueError):
            GBDTParams(learning_rate=0)
        with pytest.raises(ValueError):
            GBDTParams(subsample=1.5)
        with pytest.raises(ValueError):
            GBDTParams(colsample=0)


class TestSingleClassBehaviour:
    def test_single_class_labels_raise_nowhere_but_fit_is_degenerate(self):
        # All-negative labels are technically binary; the model should fit
        # without error and predict low probabilities.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 3))
        y = np.zeros(50)
        model = GBDTClassifier(GBDTParams(n_trees=3,
                                          tree=TreeParams(min_child_samples=5)))
        model.fit(x, y)
        assert model.predict_proba(x).max() < 0.2


class TestStagedPredictions:
    def test_one_stage_per_tree(self, rng):
        x, y = _classification_problem(rng, n=300)
        model = GBDTClassifier(GBDTParams(n_trees=6)).fit(x, y)
        stages = list(model.staged_predict_proba_binned(model.bin_features(x)))
        assert len(stages) == model.n_trees_fitted

    def test_final_stage_matches_predict_proba(self, rng):
        x, y = _classification_problem(rng, n=300)
        model = GBDTClassifier(GBDTParams(n_trees=6)).fit(x, y)
        *_, final = model.staged_predict_proba_binned(model.bin_features(x))
        np.testing.assert_allclose(final, model.predict_proba(x), atol=1e-12)

    def test_training_auc_improves_over_stages(self, rng):
        x, y = _classification_problem(rng, n=600)
        model = GBDTClassifier(GBDTParams(n_trees=25)).fit(x, y)
        stages = list(model.staged_predict_proba_binned(model.bin_features(x)))
        first = auc_score(y, stages[0])
        last = auc_score(y, stages[-1])
        assert last > first

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            list(GBDTClassifier().staged_predict_proba_binned(
                np.zeros((1, 2), dtype=np.uint8)))
