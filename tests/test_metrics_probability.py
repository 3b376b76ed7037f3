"""Unit tests for probability-quality metrics."""

import numpy as np
import pytest

from repro.metrics.probability import (
    calibration_gap_by_environment,
    expected_calibration_error,
    reliability_bins,
)


class TestReliabilityBins:
    def test_calibrated_probabilities_small_gaps(self, rng):
        p = rng.random(50_000)
        y = (rng.random(50_000) < p).astype(float)
        bins = reliability_bins(y, p, n_bins=10)
        assert len(bins) == 10
        assert all(b.gap < 0.02 for b in bins)

    def test_counts_sum_to_n(self, rng):
        p = rng.random(500)
        y = rng.integers(0, 2, 500).astype(float)
        bins = reliability_bins(y, p, n_bins=7)
        assert sum(b.count for b in bins) == 500

    def test_probability_one_lands_in_last_bin(self):
        y = np.array([1.0, 0.0])
        p = np.array([1.0, 0.0])
        bins = reliability_bins(y, p, n_bins=5)
        assert bins[0].lower == 0.0
        assert bins[-1].upper == 1.0

    def test_empty_bins_omitted(self):
        y = np.array([0.0, 1.0])
        p = np.array([0.05, 0.95])
        bins = reliability_bins(y, p, n_bins=10)
        assert len(bins) == 2

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            reliability_bins(np.array([0.0, 1.0]), np.array([0.1, 0.9]),
                             n_bins=0)


class TestECE:
    def test_calibrated_low(self, rng):
        p = rng.random(50_000)
        y = (rng.random(50_000) < p).astype(float)
        assert expected_calibration_error(y, p) < 0.01

    def test_overconfident_high(self, rng):
        # Predict near-certainty on coin flips.
        y = rng.integers(0, 2, 5_000).astype(float)
        p = np.where(y == 1, 0.99, 0.95)  # labels leak but badly calibrated
        assert expected_calibration_error(y, p) > 0.3

    def test_between_zero_and_one(self, rng):
        for seed in range(3):
            r = np.random.default_rng(seed)
            y = r.integers(0, 2, 200).astype(float)
            p = r.random(200)
            assert 0.0 <= expected_calibration_error(y, p) <= 1.0


class TestPerEnvironmentGap:
    def test_structure(self, rng):
        labels = {"a": rng.integers(0, 2, 300).astype(float),
                  "b": rng.integers(0, 2, 300).astype(float)}
        probs = {"a": rng.random(300), "b": rng.random(300)}
        gaps = calibration_gap_by_environment(labels, probs)
        assert set(gaps) == {"a", "b"}
        assert all(0 <= v <= 1 for v in gaps.values())

    def test_miscalibrated_env_detected(self, rng):
        n = 5_000
        p_good = rng.random(n)
        y_good = (rng.random(n) < p_good).astype(float)
        p_bad = rng.random(n)
        y_bad = (rng.random(n) < np.clip(p_bad + 0.3, 0, 1)).astype(float)
        gaps = calibration_gap_by_environment(
            {"good": y_good, "bad": y_bad},
            {"good": p_good, "bad": p_bad},
        )
        assert gaps["bad"] > gaps["good"] + 0.1

    def test_key_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            calibration_gap_by_environment(
                {"a": np.array([0.0, 1.0])}, {"b": np.array([0.5, 0.5])}
            )
