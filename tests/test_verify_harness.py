"""Tests for the metamorphic/property harness itself.

The harness assertions are trusted by the rest of the suite, so these tests
check both directions: they hold on correct implementations, and they *fail*
on deliberately broken ones (an assertion that can't fail verifies nothing).
"""

import numpy as np
import pytest

from repro.metrics.auc import auc_score
from repro.metrics.ks import ks_score
from repro.pipeline.pipeline import LoanDefaultPipeline
from repro.train.registry import make_trainer
from tests.harness import (
    assert_deterministic,
    assert_environment_permutation_invariant,
    assert_label_flip_symmetry,
    assert_monotone_transform_invariant,
    assert_persist_round_trip,
    monotone_transforms,
    random_environments,
    random_labels_and_scores,
)


class TestGenerators:
    def test_labels_have_both_classes(self, rng):
        for _ in range(20):
            y, s = random_labels_and_scores(rng, n=10)
            assert 0 < y.sum() < y.size
            assert np.all(np.isfinite(s))

    def test_too_small_rejected(self, rng):
        with pytest.raises(ValueError):
            random_labels_and_scores(rng, n=1)

    def test_random_environments_shape(self, rng):
        envs = random_environments(rng, n_envs=4, n_per_env=30, n_features=6)
        assert len(envs) == 4
        for env in envs:
            assert env.features.shape == (30, 6)
            assert 0 < env.labels.sum() < 30

    def test_transforms_strictly_increasing(self, rng):
        _, s = random_labels_and_scores(rng, n=200)
        s = np.unique(s)
        for name, transform in monotone_transforms():
            out = transform(s)
            assert np.all(np.diff(out) > 0), f"{name} not strictly increasing"


class TestMetricAssertions:
    def test_rank_metrics_pass(self, rng):
        for _ in range(10):
            y, s = random_labels_and_scores(rng)
            assert_monotone_transform_invariant(ks_score, y, s)
            assert_monotone_transform_invariant(auc_score, y, s)
            assert_label_flip_symmetry(y, s)

    def test_non_rank_metric_caught(self, rng):
        """A metric depending on score magnitudes must trip the assertion."""
        y, s = random_labels_and_scores(rng)

        def mean_score(labels, scores):
            return float(np.mean(scores))

        with pytest.raises(AssertionError, match="monotone transform"):
            assert_monotone_transform_invariant(mean_score, y, s)

    def test_broken_flip_symmetry_caught(self, rng, monkeypatch):
        """If AUC ignored the flip, the symmetry assertion must fire."""
        y, s = random_labels_and_scores(rng)
        from tests import harness as harness_module

        monkeypatch.setattr(
            harness_module, "auc_score", lambda labels, scores: 0.75
        )
        with pytest.raises(AssertionError, match="label-flip"):
            assert_label_flip_symmetry(y, s)


#: Trainers whose objective is a symmetric function of the environment set.
ORDER_INSENSITIVE = (
    "ERM", "Up Sampling", "Group DRO", "V-REx", "IRMv1", "meta-IRM",
)


class TestTrainerAssertions:
    @pytest.mark.parametrize("name", ORDER_INSENSITIVE)
    def test_environment_permutation_invariance(self, name, rng):
        envs = random_environments(rng)
        assert_environment_permutation_invariant(
            lambda: make_trainer(name, n_epochs=8),
            envs,
            np.random.default_rng(1),
        )

    def test_order_sensitive_trainer_caught(self, rng):
        """LightMIRM samples partners by index, so permuting environments
        legitimately changes the fit — the assertion must detect that."""
        envs = random_environments(rng)
        with pytest.raises(AssertionError, match="permutation"):
            assert_environment_permutation_invariant(
                lambda: make_trainer("LightMIRM", n_epochs=8),
                envs,
                np.random.default_rng(1),
            )

    def test_determinism_assertion_passes(self, rng):
        envs = random_environments(rng)
        assert_deterministic(lambda: make_trainer("ERM", n_epochs=5), envs)

    def test_seed_dependence_caught(self, rng):
        """Feeding it fits with different seeds must raise."""
        envs = random_environments(rng)
        seeds = iter((0, 1))
        with pytest.raises(AssertionError):
            assert_deterministic(
                lambda: make_trainer("ERM", n_epochs=5, seed=next(seeds)),
                envs,
            )


class TestPersistAssertion:
    def test_round_trip_passes(self, small_split, tmp_path):
        pipeline = LoanDefaultPipeline(make_trainer("ERM", n_epochs=10))
        pipeline.fit(small_split.train)
        assert_persist_round_trip(
            pipeline, small_split.test, tmp_path / "model.json"
        )
