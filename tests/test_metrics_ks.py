"""Unit tests for the KS statistic."""

import numpy as np
import pytest
from scipy import stats

from repro.metrics.ks import ks_score, two_sample_ks


class TestKsScore:
    def test_perfect_separation(self):
        y = np.array([0, 0, 1, 1])
        s = np.array([0.1, 0.2, 0.8, 0.9])
        assert ks_score(y, s) == 1.0

    def test_uninformative_scores_low(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 4000).astype(float)
        s = rng.random(4000)
        assert ks_score(y, s) < 0.08

    def test_equals_two_sample_ks_on_class_split(self):
        """For a positively-oriented score the signed and unsigned KS agree."""
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, 500).astype(float)
        y[:2] = [0, 1]
        s = rng.standard_normal(500) + 0.7 * y
        expected = two_sample_ks(s[y == 1], s[y == 0])
        assert ks_score(y, s) == pytest.approx(expected, abs=1e-12)

    def test_inverted_ranking_scores_near_zero(self):
        """The signed convention: anti-ranking is a failure, not a win."""
        rng = np.random.default_rng(7)
        y = rng.integers(0, 2, 500).astype(float)
        y[:2] = [0, 1]
        s = rng.standard_normal(500) - 2.0 * y  # defaulters scored LOWER
        assert ks_score(y, s) < 0.1
        assert two_sample_ks(s[y == 1], s[y == 0]) > 0.5

    def test_matches_scipy_ks_2samp(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, 300).astype(float)
        y[:2] = [0, 1]
        s = rng.standard_normal(300) + y
        expected = stats.ks_2samp(s[y == 1], s[y == 0]).statistic
        assert ks_score(y, s) == pytest.approx(expected, abs=1e-12)

    def test_invariant_to_increasing_monotone_transform(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, 200).astype(float)
        y[:2] = [0, 1]
        s = rng.random(200)
        assert ks_score(y, s) == pytest.approx(ks_score(y, np.exp(3 * s)))

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            r = np.random.default_rng(seed)
            y = r.integers(0, 2, 50).astype(float)
            y[:2] = [0, 1]
            s = r.random(50)
            assert 0.0 <= ks_score(y, s) <= 1.0

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            ks_score(np.zeros(10), np.arange(10.0))


class TestTwoSampleKs:
    def test_identical_samples_zero(self):
        a = np.arange(10.0)
        assert two_sample_ks(a, a) == 0.0

    def test_disjoint_samples_one(self):
        assert two_sample_ks(np.zeros(5), np.ones(5)) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(40)
        b = rng.standard_normal(60) + 0.5
        assert two_sample_ks(a, b) == pytest.approx(two_sample_ks(b, a))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            two_sample_ks(np.array([]), np.array([1.0]))
