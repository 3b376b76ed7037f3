"""Tests for the shared-memory metrics slab (repro.obs.live.slab).

The slab is the cross-process leg of the live telemetry plane: one
fixed-layout row per worker, seqlock generations for torn-free parent
reads, and a parent-side aggregator whose merged output must be
byte-compatible with the single-process ``Histogram`` snapshot schema.
"""

import numpy as np
import pytest

from repro.obs.live.slab import (
    SERVING_SLAB_LAYOUT,
    MetricsAggregator,
    MetricsSlab,
    SlabLayout,
    telemetry_to_row,
)
from repro.obs.metrics import Histogram
from repro.serve.telemetry import ServingTelemetry

LAYOUT = SlabLayout(
    counters=("rows", "batches"),
    gauges=("busy",),
    histograms=(("lat", (0.001, 0.01, 0.1)),),
)


@pytest.fixture()
def slab():
    slab = MetricsSlab.allocate(LAYOUT, n_workers=3)
    yield slab
    slab.dispose()


class TestSlabLayout:
    def test_meta_roundtrip(self):
        rebuilt = SlabLayout.from_meta(LAYOUT.to_meta())
        assert rebuilt == LAYOUT

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SlabLayout(counters=("a",), gauges=("a",))

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SlabLayout()

    def test_attach_rebuilds_layout_from_spec_alone(self, slab):
        attached = MetricsSlab.attach(slab.spec)
        try:
            assert attached.layout == LAYOUT
            assert attached.n_workers == 3
        finally:
            attached.close()


class TestSeqlock:
    def test_unwritten_row_reads_none(self, slab):
        assert slab.read_worker(0) is None

    def test_publish_then_read_roundtrip(self, slab):
        writer = slab.writer(1)
        writer.publish(
            np.array([10, 2], dtype=np.int64),
            np.array([0.5]),
            [(np.array([1, 2, 0, 1], dtype=np.int64), 0.25)],
        )
        sample = slab.read_worker(1)
        assert sample["counters"] == {"rows": 10, "batches": 2}
        assert sample["gauges"]["busy"] == pytest.approx(0.5)
        hist = sample["histograms"]["lat"]
        assert list(hist["counts"]) == [1, 2, 0, 1]
        assert hist["total"] == pytest.approx(0.25)
        assert sample["generation"] == 2
        assert sample["heartbeat_unix"] > 0

    def test_other_rows_stay_untouched(self, slab):
        slab.writer(0).publish(np.array([1, 1], dtype=np.int64))
        assert slab.read_worker(1) is None
        assert slab.read_worker(2) is None

    def test_mid_write_row_is_not_consumed(self, slab):
        # Simulate a writer frozen mid-write: generation left odd.
        slab.writer(0).publish(np.array([5, 1], dtype=np.int64))
        slab._arrays["gen"][0] = 3
        assert slab.read_worker(0) is None

    def test_allow_torn_reads_through_odd_generation(self, slab):
        slab.writer(0).publish(np.array([5, 1], dtype=np.int64))
        slab._arrays["gen"][0] = 3   # writer died mid-write
        sample = slab.read_worker(0, allow_torn=True)
        assert sample is not None
        assert sample["counters"]["rows"] == 5

    def test_worker_id_bounds_checked(self, slab):
        with pytest.raises(ValueError, match="out of range"):
            slab.writer(3)

    def test_heartbeat_does_not_count_as_publish(self, slab):
        writer = slab.writer(2)
        writer.heartbeat()
        # Row has a generation now, but metrics are all zero and valid.
        sample = slab.read_worker(2)
        assert sample["counters"] == {"rows": 0, "batches": 0}
        assert writer.n_published == 0


class TestTelemetryToRow:
    def test_flattens_serving_telemetry(self):
        telemetry = ServingTelemetry()
        telemetry.record_batch(n_rows=8, seconds=0.002)
        telemetry.record_batch(n_rows=4, seconds=0.004)
        telemetry.record_fallback("drift")
        telemetry.record_fallback("challenger_error")
        counters, gauges, hists = telemetry_to_row(telemetry)
        names = dict(zip(SERVING_SLAB_LAYOUT.counters, counters))
        assert names["rows_scored"] == 12
        assert names["batches"] == 2
        assert names["fallbacks"] == 2          # per-reason dict flattened
        assert gauges[0] == pytest.approx(0.006)
        (counts, total), = hists
        assert counts.sum() == 2
        assert total == pytest.approx(0.006)

    def test_row_width_matches_layout(self):
        counters, gauges, hists = telemetry_to_row(ServingTelemetry())
        assert len(counters) == len(SERVING_SLAB_LAYOUT.counters)
        assert len(gauges) == len(SERVING_SLAB_LAYOUT.gauges)
        name, bounds = SERVING_SLAB_LAYOUT.histograms[0]
        assert len(hists[0][0]) == len(bounds) + 1


class TestAggregator:
    def test_counters_sum_across_workers(self, slab):
        agg = MetricsAggregator(slab)
        slab.writer(0).publish(np.array([10, 1], dtype=np.int64))
        slab.writer(2).publish(np.array([7, 2], dtype=np.int64))
        merged = agg.aggregate()
        assert merged["counters"] == {"rows": 17, "batches": 3}
        assert merged["workers_reporting"] == 2

    def test_histogram_snapshot_is_byte_compatible(self, slab):
        """Merged slab histograms == one Histogram fed every observation."""
        agg = MetricsAggregator(slab)
        reference = Histogram((0.001, 0.01, 0.1))
        per_worker = [(0.0005, 0.005), (0.05, 0.5)]
        for worker_id, values in enumerate(per_worker):
            local = Histogram((0.001, 0.01, 0.1))
            for value in values:
                local.observe(value)
                reference.observe(value)
            slab.writer(worker_id).publish(
                np.zeros(2, dtype=np.int64), None,
                [(local.counts, local.total)],
            )
        merged = agg.aggregate()["histograms"]["lat"]
        assert merged == reference.snapshot()

    def test_absolute_publishes_self_heal(self, slab):
        """Only the LAST publish matters: missed polls lose nothing."""
        agg = MetricsAggregator(slab)
        writer = slab.writer(0)
        for total in (5, 50, 500):   # parent never polled between these
            writer.publish(np.array([total, 1], dtype=np.int64))
        assert agg.aggregate()["counters"]["rows"] == 500

    def test_absorb_retired_preserves_totals_across_respawn(self, slab):
        agg = MetricsAggregator(slab)
        slab.writer(0).publish(np.array([100, 4], dtype=np.int64))
        agg.read_all()
        agg.absorb_retired(0)        # worker died, row zeroed
        assert slab.read_worker(0) is None
        # Replacement restarts its lifetime totals from zero.
        slab.writer(0).publish(np.array([30, 1], dtype=np.int64))
        merged = agg.aggregate()
        assert merged["counters"] == {"rows": 130, "batches": 5}

    def test_absorb_retired_falls_back_to_last_good(self, slab):
        agg = MetricsAggregator(slab)
        slab.writer(1).publish(np.array([40, 2], dtype=np.int64))
        agg.read_all()
        slab._arrays["gen"][1] = 0   # row lost entirely (e.g. re-init)
        agg.absorb_retired(1)
        assert agg.aggregate()["counters"]["rows"] == 40

    def test_liveness_reports_unwritten_and_stale_rows(self, slab):
        agg = MetricsAggregator(slab, liveness_timeout_s=5.0)
        slab.writer(0).publish(np.array([1, 1], dtype=np.int64))
        slab.writer(1).publish(np.array([1, 1], dtype=np.int64))
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
        slab.writer(0).publish(np.array([10, 1], dtype=np.int64))
        agg.read_all()
        slab._arrays["gen"][0] = 5   # writer mid-publish at poll time
        merged = agg.aggregate()
        assert merged["counters"]["rows"] == 10
        assert merged["workers_reporting"] == 1
