"""Unit tests for the one metric primitive (repro.obs.metrics)."""

import math

import numpy as np
import pytest

from repro.obs.metrics import LATENCY_BUCKETS, Histogram


class TestHistogram:
    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError, match="non-empty and increasing"):
            Histogram(())
        with pytest.raises(ValueError, match="non-empty and increasing"):
            Histogram((1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="non-empty and increasing"):
            Histogram((2.0, 1.0))

    def test_bucketing_is_inclusive_of_upper_bound(self):
        hist = Histogram((1.0, 2.0, 3.0))
        hist.observe(0.5)   # below first bound -> bucket 0
        hist.observe(1.0)   # on the bound -> that bucket
        hist.observe(2.5)
        hist.observe(99.0)  # above last bound -> overflow
        buckets = hist.bucket_counts()
        assert buckets == {
            "le_1": 2, "le_2": 0, "le_3": 1, "overflow": 1
        }

    def test_count_mean_total_exact(self):
        hist = Histogram((1.0, 10.0))
        for value in (0.25, 0.5, 4.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == pytest.approx(4.75)
        assert hist.mean == pytest.approx(4.75 / 3)

    def test_empty_histogram_reads_zero(self):
        hist = Histogram((1.0,))
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0

    def test_rejects_non_finite(self):
        hist = Histogram((1.0,))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                hist.observe(bad)
        assert hist.count == 0

    def test_percentile_is_conservative_upper_bound(self):
        hist = Histogram((1.0, 2.0, 4.0))
        for _ in range(99):
            hist.observe(0.5)
        hist.observe(3.0)
        assert hist.percentile(50) == 1.0
        assert hist.percentile(99) == 1.0
        assert hist.percentile(100) == 4.0

    def test_percentile_overflow_reports_last_finite_bound(self):
        hist = Histogram((1.0, 2.0))
        hist.observe(50.0)
        assert hist.percentile(50) == 2.0

    def test_percentile_validates_q(self):
        hist = Histogram((1.0,))
        for bad in (0, -5, 101):
            with pytest.raises(ValueError, match="q must be in"):
                hist.percentile(bad)

    def test_snapshot_shape(self):
        hist = Histogram((1.0, 2.0))
        hist.observe(0.5)
        snap = hist.snapshot()
        assert set(snap) == {"count", "sum", "mean", "p50", "p95", "p99",
                             "buckets"}
        assert snap["count"] == 1
        assert snap["sum"] == 0.5
        assert len(snap["buckets"]) == 3  # two finite buckets + overflow

    def test_default_value_buckets_are_increasing(self):
        # The latency buckets are the default (and only) layout.
        assert list(LATENCY_BUCKETS) == sorted(set(LATENCY_BUCKETS))
        assert Histogram().bounds == LATENCY_BUCKETS

    def test_rejects_negative(self):
        hist = Histogram()
        with pytest.raises(ValueError, match="negative"):
            hist.observe(-1e-9)
        hist.observe(0.0)
        assert hist.count == 1

    def test_snapshot_sum_is_the_exact_running_total(self):
        hist = Histogram()
        exact = 0.0
        for value in (0.1, 0.2, 0.3, 1e-5, 7.0):
            hist.observe(value)
            exact += value
        snap = hist.snapshot()
        assert snap["sum"] == exact
        assert snap["mean"] == exact / 5


class TestCountAbove:
    """``count_above(bound)``: observations in buckets whose upper bound
    exceeds ``bound``, the +Inf overflow included."""

    @staticmethod
    def _by_bucket_keys(hist, bound):
        # The bucket-key reading count_above replaces: parse le_<bound>.
        return sum(
            count for key, count in hist.bucket_counts().items()
            if key == "overflow" or float(key.removeprefix("le_")) > bound
        )

    def test_edges_between_and_overflow(self):
        hist = Histogram((1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 2.0, 3.0, 9.0):
            hist.observe(value)
        assert hist.count_above(0.0) == 6
        assert hist.count_above(1.0) == 4    # on an edge: that bucket is fast
        assert hist.count_above(1.5) == 4    # straddling bucket counts whole
        assert hist.count_above(2.0) == 2
        assert hist.count_above(4.0) == 1    # the last edge: overflow only
        assert hist.count_above(100.0) == 1  # past it: overflow still counts

    def test_matches_the_bucket_key_reading(self):
        rng = np.random.default_rng(3)
        bounds = [0.0, 5e-6, *LATENCY_BUCKETS, 0.05, 0.2, 2.0, 50.0]
        for _ in range(300):
            hist = Histogram()
            for value in 10 ** rng.uniform(-6, 1.5, size=rng.integers(0, 40)):
                hist.observe(float(value))
            for bound in bounds:
                assert (hist.count_above(bound)
                        == self._by_bucket_keys(hist, bound))
