"""Tests for the shared-memory metrics slab (repro.obs.live.slab).

The slab is the cross-process leg of the live telemetry plane: one fixed
row per worker (four counters, busy seconds, batch-latency buckets plus
exact sum), seqlock generations for torn-free parent reads, and a
parent-side aggregator whose merged output must be byte-compatible with
the single-process ``Histogram`` snapshot schema.
"""

import numpy as np
import pytest

from repro.obs.live.slab import COUNTERS, MetricsAggregator, MetricsSlab
from repro.obs.metrics import LATENCY_BUCKETS, Histogram
from repro.serve.telemetry import ServingTelemetry


def _telemetry(rows: int = 0, batches: int = 0,
               latencies: tuple[float, ...] = ()) -> ServingTelemetry:
    """A worker's telemetry: counter totals plus batch latencies."""
    telemetry = ServingTelemetry()
    for seconds in latencies:
        telemetry.record_batch(0, seconds)
    telemetry.rows_scored = rows
    telemetry.batches = batches
    return telemetry


@pytest.fixture()
def slab():
    slab = MetricsSlab.allocate(n_workers=3)
    yield slab
    slab.dispose()


class TestSlabLayout:
    def test_attach_rebuilds_layout_from_spec_alone(self, slab):
        attached = MetricsSlab.attach(slab.spec)
        try:
            assert attached.n_workers == 3
            attached.writer(2).publish(_telemetry(rows=7, batches=1))
        finally:
            attached.close()
        assert slab.read_worker(2)["counters"]["rows_scored"] == 7


class TestSeqlock:
    def test_unwritten_row_reads_none(self, slab):
        assert slab.read_worker(0) is None

    def test_publish_then_read_roundtrip(self, slab):
        writer = slab.writer(1)
        writer.publish(_telemetry(rows=10, batches=2,
                                  latencies=(0.0005, 0.25)))
        sample = slab.read_worker(1)
        assert sample["counters"] == {"rows_scored": 10, "batches": 2}
        assert sample["busy_seconds"] == pytest.approx(0.2505)
        hist = sample["batch_latency"]
        assert hist.count == 2
        assert hist.counts[4] == 1 and hist.counts[9] == 1
        assert hist.total == 0.0005 + 0.25
        assert sample["generation"] == 2
        assert sample["heartbeat_unix"] > 0

    def test_other_rows_stay_untouched(self, slab):
        slab.writer(0).publish(_telemetry(rows=1, batches=1))
        assert slab.read_worker(1) is None
        assert slab.read_worker(2) is None

    def test_mid_write_row_is_not_consumed(self, slab):
        # Simulate a writer frozen mid-write: generation left odd.
        slab.writer(0).publish(_telemetry(rows=5, batches=1))
        slab._arrays["gen"][0] = 3
        assert slab.read_worker(0) is None

    def test_allow_torn_reads_through_odd_generation(self, slab):
        slab.writer(0).publish(_telemetry(rows=5, batches=1))
        slab._arrays["gen"][0] = 3   # writer died mid-write
        sample = slab.read_worker(0, allow_torn=True)
        assert sample is not None
        assert sample["counters"]["rows_scored"] == 5

    def test_worker_id_bounds_checked(self, slab):
        with pytest.raises(ValueError, match="out of range"):
            slab.writer(3)

    def test_heartbeat_does_not_count_as_publish(self, slab):
        writer = slab.writer(2)
        writer.heartbeat()
        # Row has a generation now, but metrics are all zero and valid.
        sample = slab.read_worker(2)
        assert sample["counters"] == dict.fromkeys(COUNTERS, 0)


class TestTelemetryToRow:
    def test_flattens_serving_telemetry(self, slab):
        telemetry = ServingTelemetry()
        telemetry.record_batch(n_rows=8, seconds=0.002)
        telemetry.record_batch(n_rows=4, seconds=0.004)
        telemetry.record_fallback("drift")  # worker-local, not in the row
        slab.writer(0).publish(telemetry)
        sample = slab.read_worker(0)
        assert sample["counters"] == {"rows_scored": 12, "batches": 2}
        assert sample["busy_seconds"] == telemetry.busy_seconds
        assert sample["batch_latency"].count == 2
        assert sample["batch_latency"].total == telemetry.batch_latency.total
        assert sample["batch_latency"].snapshot() == (
            telemetry.batch_latency.snapshot())

    def test_row_width_matches_layout(self, slab):
        arrays = slab._arrays
        assert arrays["counters"].shape == (3, len(COUNTERS))
        assert arrays["latency_counts"].shape == (3, len(LATENCY_BUCKETS) + 1)
        assert arrays["busy_seconds"].shape == arrays["latency_sum"].shape


class TestAggregator:
    def test_counters_sum_across_workers(self, slab):
        agg = MetricsAggregator(slab)
        slab.writer(0).publish(_telemetry(rows=10, batches=1))
        slab.writer(2).publish(_telemetry(rows=7, batches=2))
        merged = agg.aggregate()
        assert merged["counters"] == {"rows_scored": 17, "batches": 3}
        assert merged["workers_reporting"] == 2

    def test_histogram_snapshot_is_byte_compatible(self, slab):
        """Merged slab histograms == one Histogram fed every observation."""
        agg = MetricsAggregator(slab)
        reference = Histogram()
        per_worker = [(0.0005, 0.005), (0.05, 0.5)]
        for worker_id, values in enumerate(per_worker):
            for value in values:
                reference.observe(value)
            slab.writer(worker_id).publish(_telemetry(latencies=values))
        merged = agg.aggregate()
        assert merged["histograms"]["batch_latency"] == reference.snapshot()
        assert merged["gauges"]["busy_seconds"] == pytest.approx(0.5555)

    def test_absolute_publishes_self_heal(self, slab):
        """Only the LAST publish matters: missed polls lose nothing."""
        agg = MetricsAggregator(slab)
        writer = slab.writer(0)
        for total in (5, 50, 500):   # parent never polled between these
            writer.publish(_telemetry(rows=total, batches=1))
        assert agg.aggregate()["counters"]["rows_scored"] == 500

    def test_absorb_retired_preserves_totals_across_respawn(self, slab):
        agg = MetricsAggregator(slab)
        slab.writer(0).publish(_telemetry(rows=100, batches=4,
                                          latencies=(0.01, 2.0)))
        agg.read_all()
        agg.absorb_retired(0)        # worker died, row zeroed
        assert slab.read_worker(0) is None
        assert not np.any(slab._arrays["latency_counts"][0])
        # Replacement restarts its lifetime totals from zero.
        slab.writer(0).publish(_telemetry(rows=30, batches=1,
                                          latencies=(0.5,)))
        merged = agg.aggregate()
        assert merged["counters"]["rows_scored"] == 130
        assert merged["counters"]["batches"] == 5
        latency = merged["histograms"]["batch_latency"]
        assert latency["count"] == 3
        assert latency["sum"] == 0.01 + 2.0 + 0.5

    def test_absorb_retired_falls_back_to_last_good(self, slab):
        agg = MetricsAggregator(slab)
        slab.writer(1).publish(_telemetry(rows=40, batches=2))
        agg.read_all()
        slab._arrays["gen"][1] = 0   # row lost entirely (e.g. re-init)
        agg.absorb_retired(1)
        assert agg.aggregate()["counters"]["rows_scored"] == 40

    def test_liveness_reports_unwritten_and_stale_rows(self, slab):
        agg = MetricsAggregator(slab)
        slab.writer(0).publish(_telemetry(rows=1, batches=1))
        slab.writer(1).publish(_telemetry(rows=1, batches=1))
        slab._arrays["heartbeat_unix"][1] -= 60.0   # old heartbeat
        report = agg.liveness()
        assert report["0"] == {"reporting": True,
                               "age_s": report["0"]["age_s"],
                               "stale": False}
        assert report["1"]["reporting"] and report["1"]["stale"]
        assert report["2"] == {"reporting": False, "age_s": None,
                               "stale": True}

    def test_torn_poll_returns_last_good_sample(self, slab):
        agg = MetricsAggregator(slab)
        slab.writer(0).publish(_telemetry(rows=10, batches=1))
        agg.read_all()
        slab._arrays["gen"][0] = 5   # writer mid-publish at poll time
        merged = agg.aggregate()
        assert merged["counters"]["rows_scored"] == 10
        assert merged["workers_reporting"] == 1
