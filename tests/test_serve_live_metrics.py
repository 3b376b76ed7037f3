"""One set of serving measurements: the latency SLO feed and key sets.

The front-end's ``latency`` objective counts slow resolutions from the
``request_latency`` histogram's buckets, so a resolution is "slow" when
its bucket's upper bound exceeds ``_SLO_LATENCY_BOUND_S`` (the +Inf
overflow bucket included).  Every serving histogram view — per-worker
batch latency, the front-end's request latency and the merged
cross-worker batch latency — speaks the one
:class:`~repro.obs.metrics.Histogram` snapshot key set.
"""

import bisect
import math

import pytest

from repro.obs.live import SLOConfig, SLOTracker
from repro.obs.metrics import LATENCY_BUCKETS
from repro.serve import frontend as frontend_module
from repro.serve.frontend import FrontendConfig, ScoringFrontend
from repro.serve.telemetry import FrontendTelemetry, ServingTelemetry

#: Known resolutions spanning the buckets: values on an edge (0.03, 0.1),
#: just past one (0.031) and in the overflow bucket (20, 50).
LATENCIES = (2e-5, 2e-4, 2e-3, 0.02, 0.03, 0.031, 0.05, 0.09, 0.1, 0.2,
             0.5, 2.0, 20.0, 50.0)

#: Histogram snapshot keys shared by every view.
SNAPSHOT_KEYS = {"count", "sum", "mean", "p50", "p95", "p99", "buckets"}


def _bucket_bound(seconds: float) -> float:
    """Upper bound of the bucket an observation lands in (inf: overflow)."""
    index = bisect.bisect_left(LATENCY_BUCKETS, seconds)
    return LATENCY_BUCKETS[index] if index < len(LATENCY_BUCKETS) else math.inf


class TestLatencySLOFeed:
    @pytest.mark.parametrize("bound, expected_bad", [
        (0.05, 9),    # between the 0.03 and 0.1 edges
        (0.025, 11),  # between the 0.01 and 0.03 edges
        (0.03, 9),    # equal to an edge: that bucket is not slow
        (10.0, 2),    # equal to the last edge: only the overflow is slow
        (20.0, 2),    # past the last edge: the overflow still is
    ])
    def test_bad_count_is_resolutions_in_slower_buckets(
            self, scoring_model, bound, expected_bad, monkeypatch):
        monkeypatch.setattr(frontend_module, "_SLO_LATENCY_BOUND_S", bound)
        tracker = SLOTracker([SLOConfig("latency", error_budget=0.05)])
        frontend = ScoringFrontend(scoring_model, slo_tracker=tracker)
        latency = frontend.telemetry.request_latency
        for seconds in (5.0, 5.0, 0.5):   # before the baseline: not fed
            latency.observe(seconds)
        frontend._feed_slo(now=1.0)
        for seconds in LATENCIES:
            latency.observe(seconds)
        frontend._feed_slo(now=2.0)

        slow = sum(1 for s in LATENCIES if _bucket_bound(s) > bound)
        assert slow == expected_bad
        state = tracker.snapshot(now=2.0)["latency"]
        assert state["bad_tracked"] == expected_bad
        assert state["events_tracked"] == len(LATENCIES)


class TestOneKeySet:
    def test_every_histogram_view_has_the_same_keys(self, scoring_model,
                                                    request_rows):
        serving = ServingTelemetry()
        serving.record_batch(4, 0.002)
        frontend_telemetry = FrontendTelemetry()
        frontend_telemetry.record_request(0.003)

        config = FrontendConfig(n_workers=2, max_batch_size=16,
                                live_metrics=True)
        frontend = ScoringFrontend(scoring_model, config).start()
        try:
            frontend.score_stream(request_rows[:40])
            snap = frontend.snapshot()
        finally:
            frontend.stop()
        merged = snap["workers"]["histograms"]["batch_latency"]

        views = [
            serving.snapshot()["batch_latency"],
            frontend_telemetry.snapshot()["request_latency"],
            snap["telemetry"]["request_latency"],
            merged,
        ]
        for view in views:
            assert set(view) == SNAPSHOT_KEYS
            assert list(view["buckets"]) == list(merged["buckets"])
        assert merged["count"] == snap["workers"]["counters"]["batches"]
        assert merged["sum"] == pytest.approx(
            merged["mean"] * merged["count"])
