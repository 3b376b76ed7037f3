"""Tests for serving telemetry (repro.serve.telemetry)."""

import bisect

import numpy as np
import pytest

from repro.obs.metrics import LATENCY_BUCKETS, Histogram
from repro.serve.telemetry import ServingTelemetry


class TestLatencyHistogram:
    """The latency histogram: :class:`Histogram` on its default buckets."""

    def test_observations_land_in_correct_buckets(self):
        hist = Histogram(buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.005, 0.05, 5.0):
            hist.observe(value)
        assert list(hist.counts) == [1, 2, 1, 1]   # last = overflow
        assert hist.count == 5

    def test_boundary_value_goes_to_lower_bucket(self):
        hist = Histogram(buckets=(0.001, 0.01))
        hist.observe(0.001)   # le_0.001 is inclusive
        assert hist.counts[0] == 1

    def test_mean_is_exact(self):
        hist = Histogram()
        hist.observe(0.1)
        hist.observe(0.3)
        assert hist.mean == pytest.approx(0.2)

    def test_percentile_is_conservative_upper_bound(self):
        hist = Histogram(buckets=(0.001, 0.01, 0.1))
        for _ in range(99):
            hist.observe(0.0005)
        hist.observe(0.05)
        assert hist.percentile(50) == 0.001
        assert hist.percentile(100) == 0.1

    def test_percentile_empty_is_zero(self):
        assert Histogram().percentile(95) == 0.0

    def test_percentile_validates_q(self):
        hist = Histogram()
        for q in (0, -1, 101):
            with pytest.raises(ValueError):
                hist.percentile(q)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Histogram().observe(-1e-9)

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(0.1, 0.1))
        with pytest.raises(ValueError):
            Histogram(buckets=())

    def test_snapshot_schema(self):
        hist = Histogram()
        hist.observe(0.002)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert set(snap) == {"count", "sum", "mean", "p50", "p95", "p99",
                             "buckets"}
        assert len(snap["buckets"]) == len(LATENCY_BUCKETS) + 1
        assert sum(snap["buckets"].values()) == 1


class _ReferenceLatencyHistogram:
    """The original standalone latency histogram, kept as the oracle.

    Serving latencies are plain :class:`repro.obs.metrics.Histogram`
    objects; this reference pins the exact bucketing, sum, mean and
    percentile semantics (and the snapshot schema) the serving docs
    promise, independent of the shared code path.
    """

    def __init__(self, buckets=LATENCY_BUCKETS):
        self.bounds = tuple(float(b) for b in buckets)
        self.counts = np.zeros(len(self.bounds) + 1, dtype=np.int64)
        self.total_seconds = 0.0

    def observe(self, seconds):
        self.counts[bisect.bisect_left(self.bounds, seconds)] += 1
        self.total_seconds += seconds

    @property
    def count(self):
        return int(self.counts.sum())

    def percentile(self, q):
        n = self.count
        if n == 0:
            return 0.0
        rank = int(np.ceil(q / 100.0 * n))
        cumulative = np.cumsum(self.counts)
        bucket = int(np.searchsorted(cumulative, rank))
        return self.bounds[min(bucket, len(self.bounds) - 1)]

    def snapshot(self):
        n = self.count
        return {
            "count": n,
            "sum": self.total_seconds,
            "mean": self.total_seconds / n if n else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "buckets": {
                f"le_{bound:g}": int(c)
                for bound, c in zip(self.bounds, self.counts)
            } | {"overflow": int(self.counts[-1])},
        }


class TestSharedHistogramEquivalence:
    """Histogram == the seed implementation, observation for
    observation."""

    def test_snapshot_byte_compatible_on_random_stream(self):
        rng = np.random.default_rng(42)
        # Latencies spanning every bucket, plus exact bucket boundaries
        # and overflow values.
        stream = np.concatenate([
            10 ** rng.uniform(-6, 1.5, size=500),
            np.array(LATENCY_BUCKETS),
            np.array([0.0, 15.0, 100.0]),
        ])
        ours = Histogram()
        reference = _ReferenceLatencyHistogram()
        for seconds in stream:
            ours.observe(float(seconds))
            reference.observe(float(seconds))
        assert ours.snapshot() == reference.snapshot()
        assert ours.count == reference.count
        assert ours.total == reference.total_seconds
        assert list(ours.counts) == list(reference.counts)

    def test_snapshot_byte_compatible_on_custom_buckets(self):
        buckets = (0.001, 0.01, 0.1, 1.0)
        ours = Histogram(buckets=buckets)
        reference = _ReferenceLatencyHistogram(buckets=buckets)
        for seconds in (0.0005, 0.001, 0.0011, 0.5, 2.0):
            ours.observe(seconds)
            reference.observe(seconds)
        assert ours.snapshot() == reference.snapshot()

    def test_empty_snapshots_match(self):
        assert (Histogram().snapshot()
                == _ReferenceLatencyHistogram().snapshot())


class TestServingTelemetry:
    def test_batch_accounting_and_throughput(self):
        telemetry = ServingTelemetry()
        telemetry.record_batch(100, 0.5)
        telemetry.record_batch(300, 0.5)
        assert telemetry.rows_scored == 400
        assert telemetry.batches == 2
        assert telemetry.throughput_rows_per_s == pytest.approx(400.0)

    def test_throughput_zero_before_traffic(self):
        assert ServingTelemetry().throughput_rows_per_s == 0.0

    def test_fallbacks_counted_by_reason(self):
        telemetry = ServingTelemetry()
        telemetry.record_fallback("challenger_error")
        telemetry.record_fallback("challenger_error")
        telemetry.record_fallback("drift_guard")
        assert telemetry.fallbacks == {"challenger_error": 2,
                                       "drift_guard": 1}

    def test_snapshot_schema(self):
        telemetry = ServingTelemetry()
        telemetry.record_batch(10, 0.01)
        snap = telemetry.snapshot()
        assert set(snap) == {
            "rows_scored", "batches", "throughput_rows_per_s",
            "fallbacks", "batch_latency",
        }
        assert snap["batch_latency"]["count"] == 1

    def test_summary_mentions_headline_numbers(self):
        telemetry = ServingTelemetry()
        telemetry.record_batch(42, 0.01)
        telemetry.record_fallback("drift_guard")
        summary = telemetry.summary()
        assert "rows scored     42" in summary
        assert "drift_guard=1" in summary


class TestFrontendTelemetryConcurrency:
    """FrontendTelemetry is written from two threads (caller + collector).

    ``x += 1`` is not atomic in CPython; without the internal mutex these
    loops visibly lose increments.  The acceptance criterion for the live
    plane is EXACT aggregation, so the regression test demands equality,
    not approximation.
    """

    def test_no_lost_increments_under_contention(self):
        import threading

        from repro.serve.telemetry import FrontendTelemetry

        telemetry = FrontendTelemetry()
        per_thread, n_threads = 5000, 8

        def hammer():
            for _ in range(per_thread):
                telemetry.record_admitted()
                telemetry.record_shed()
                telemetry.record_request(0.001)

        threads = [threading.Thread(target=hammer)
                   for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        expected = per_thread * n_threads
        assert telemetry.admitted == expected
        assert telemetry.shed == expected
        assert telemetry.request_latency.count == expected

    def test_snapshot_consistent_while_writers_run(self):
        import threading

        from repro.serve.telemetry import FrontendTelemetry

        telemetry = FrontendTelemetry()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                telemetry.record_admitted()
                telemetry.record_request(0.001)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(50):
                snap = telemetry.snapshot()
                # Resolution never outruns admission in a snapshot.
                assert snap["request_latency"]["count"] <= snap["admitted"]
        finally:
            stop.set()
            thread.join()
