"""Unit tests for bootstrap uncertainty intervals."""

import numpy as np
import pytest

from repro.metrics.auc import auc_score
from repro.metrics.ks import ks_score
from repro.metrics.uncertainty import (
    bootstrap_metric,
    paired_bootstrap_difference,
)


@pytest.fixture(scope="module")
def informative():
    rng = np.random.default_rng(0)
    n = 1_500
    y = rng.integers(0, 2, n).astype(float)
    scores = y + rng.standard_normal(n)
    return y, scores


class TestBootstrapMetric:
    def test_interval_brackets_estimate(self, informative):
        y, s = informative
        interval = bootstrap_metric(y, s, ks_score, n_resamples=200)
        assert interval.lower <= interval.estimate <= interval.upper
        assert interval.estimate == pytest.approx(ks_score(y, s))

    def test_auc_variant(self, informative):
        y, s = informative
        interval = bootstrap_metric(y, s, auc_score, n_resamples=200)
        assert interval.estimate == pytest.approx(auc_score(y, s))
        assert 0 < interval.width < 0.15

    def test_width_shrinks_with_sample_size(self):
        rng = np.random.default_rng(1)

        def width(n):
            y = rng.integers(0, 2, n).astype(float)
            y[:2] = [0, 1]
            s = y + rng.standard_normal(n)
            return bootstrap_metric(y, s, ks_score, n_resamples=200).width

        assert width(4_000) < width(200)

    def test_deterministic_given_seed(self, informative):
        y, s = informative
        a = bootstrap_metric(y, s, ks_score, n_resamples=100, seed=7)
        b = bootstrap_metric(y, s, ks_score, n_resamples=100, seed=7)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_confidence_levels_nest(self, informative):
        y, s = informative
        narrow = bootstrap_metric(y, s, ks_score, n_resamples=300, confidence=0.5)
        wide = bootstrap_metric(y, s, ks_score, n_resamples=300, confidence=0.99)
        assert wide.width > narrow.width

    def test_invalid_args(self, informative):
        y, s = informative
        with pytest.raises(ValueError):
            bootstrap_metric(y, s, ks_score, confidence=1.0)
        with pytest.raises(ValueError):
            bootstrap_metric(y, s, ks_score, n_resamples=5)

    def test_str_rendering(self, informative):
        y, s = informative
        text = str(bootstrap_metric(y, s, ks_score, n_resamples=50))
        assert "[" in text and "@95%" in text


class TestPairedDifference:
    def test_clearly_better_model_resolvable(self, informative):
        y, s_good = informative
        rng = np.random.default_rng(2)
        s_bad = 0.2 * y + rng.standard_normal(y.size)
        diff = paired_bootstrap_difference(y, s_good, s_bad,
                                           n_resamples=200)
        assert diff.estimate > 0
        assert diff.lower > 0  # zero excluded: a resolvable win

    def test_identical_models_unresolvable(self, informative):
        y, s = informative
        diff = paired_bootstrap_difference(y, s, s.copy(), n_resamples=100)
        assert diff.estimate == 0.0
        assert diff.contains(0.0)

    def test_tiny_perturbation_unresolvable(self, informative):
        """Adding negligible noise must not produce a confident win."""
        y, s = informative
        rng = np.random.default_rng(3)
        s_jittered = s + 1e-3 * rng.standard_normal(s.size)
        diff = paired_bootstrap_difference(y, s, s_jittered,
                                           n_resamples=200)
        assert diff.contains(0.0)

    def test_antisymmetry(self, informative):
        y, s_good = informative
        rng = np.random.default_rng(4)
        s_bad = 0.3 * y + rng.standard_normal(y.size)
        ab = paired_bootstrap_difference(y, s_good, s_bad, n_resamples=150,
                                         seed=5)
        ba = paired_bootstrap_difference(y, s_bad, s_good, n_resamples=150,
                                         seed=5)
        assert ab.estimate == pytest.approx(-ba.estimate)
        assert ab.lower == pytest.approx(-ba.upper)
