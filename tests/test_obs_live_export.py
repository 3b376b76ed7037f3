"""Tests for exposition (repro.obs.live.export) and obs top rendering.

The exporter is stdlib-only (``http.server``), so these tests exercise a
real HTTP round trip on an ephemeral port; the Prometheus renderer and
terminal renderer are pure functions tested directly.
"""

import json
import random
import urllib.request

import pytest

from repro.obs.live.export import (
    MetricsExporter,
    SnapshotFileWriter,
    render_prometheus,
)
from repro.obs.live.slab import MetricsAggregator, MetricsSlab
from repro.obs.live.top import fetch_snapshot, read_snapshot_file, render_top
from repro.serve.telemetry import FrontendTelemetry, ServingTelemetry


def sample_snapshot(state="healthy"):
    return {
        "unix": 1700000000.0,
        "generation": 3,
        "pending": 2,
        "workers_alive": 2,
        "frontend": {
            "admitted": 100, "shed": 5, "refused": 0, "errors": 1,
            "resolved": 99, "requeued": 0, "worker_deaths": 0,
            "request_latency": {
                "count": 99, "sum": 0.198, "mean": 0.002, "p50": 0.001,
                "p95": 0.01, "p99": 0.01,
                "buckets": {"le_0.001": 50, "le_0.01": 49, "overflow": 0},
            },
        },
        "workers": {
            "counters": {"rows_scored": 99, "batches": 10},
            "gauges": {"busy_seconds": 0.5},
            "histograms": {
                "batch_latency": {
                    "count": 10, "sum": 0.05, "mean": 0.005, "p50": 0.003,
                    "p95": 0.01, "p99": 0.01,
                    "buckets": {"le_0.003": 5, "le_0.01": 5, "overflow": 0},
                },
            },
            "workers_reporting": 2,
        },
        "liveness": {
            "0": {"reporting": True, "age_s": 0.1, "stale": False},
            "1": {"reporting": True, "age_s": 9.0, "stale": True},
        },
        "monitors": {
            "score_drift": {"window_rows": 500, "global_psi": 0.02,
                            "worst_province": "Gansu", "worst_psi": 0.31,
                            "provinces": {"Gansu": {"psi": 0.31,
                                                    "windows_completed": 2,
                                                    "pending_rows": 10}}},
            "calibration": {"reference_mean": 0.18, "window_rows": 1000,
                            "n_seen": 99, "score_mean": 0.19,
                            "mean_shift": 0.01, "calibration_gap": None,
                            "n_labelled": 0},
            "slo": {"admission": {"error_budget": 0.01,
                                  "events_tracked": 105, "bad_tracked": 5,
                                  "burn_rates": {"60s": 4.76,
                                                 "600s": 4.76}}},
        },
        "health": {"state": state,
                   "active_breaches": {"score_psi": "critical"},
                   "n_alerts": 2, "n_transitions": 1, "recovery_polls": 3},
    }


class TestRenderPrometheus:
    def test_renders_worker_counters_and_histograms(self):
        text = render_prometheus(sample_snapshot())
        assert "repro_worker_rows_scored_total 99" in text
        assert "repro_worker_batches_total 10" in text
        assert 'repro_worker_batch_latency_bucket{le="0.003"} 5' in text
        assert 'repro_worker_batch_latency_bucket{le="+Inf"} 10' in text
        assert "repro_worker_batch_latency_count 10" in text
        assert "repro_worker_batch_latency_sum 0.05" in text

    def test_bucket_counts_are_cumulative(self):
        text = render_prometheus(sample_snapshot())
        # le=0.01 must include the le=0.003 bucket (Prometheus contract).
        assert 'repro_worker_batch_latency_bucket{le="0.01"} 10' in text

    def test_renders_frontend_and_monitors(self):
        text = render_prometheus(sample_snapshot())
        assert "repro_frontend_admitted_total 100" in text
        assert "repro_frontend_shed_total 5" in text
        assert "repro_score_psi 0.02" in text
        assert 'repro_score_psi_province{province="Gansu"} 0.31' in text
        assert ('repro_slo_burn_rate{objective="admission",window="60s"} '
                "4.76") in text

    def test_health_state_is_one_hot(self):
        text = render_prometheus(sample_snapshot(state="degraded"))
        assert 'repro_health_state{state="degraded"} 1' in text
        assert 'repro_health_state{state="healthy"} 0' in text
        assert 'repro_health_state{state="critical"} 0' in text

    def test_liveness_gauges(self):
        text = render_prometheus(sample_snapshot())
        assert "repro_workers_stale 1" in text
        assert ('repro_worker_heartbeat_age_seconds{worker="1"} 9'
                in text)

    def test_tolerates_minimal_snapshot(self):
        # A frontend with no live plane still exposes its own telemetry.
        text = render_prometheus({"frontend": {"admitted": 1}})
        assert "repro_frontend_admitted_total 1" in text

    def test_custom_prefix(self):
        text = render_prometheus(sample_snapshot(), prefix="loan")
        assert "loan_worker_rows_scored_total 99" in text
        assert "repro_" not in text


class TestMetricsExporter:
    def test_http_round_trip(self):
        with MetricsExporter(sample_snapshot, port=0) as exporter:
            base = f"http://127.0.0.1:{exporter.port}"
            metrics = urllib.request.urlopen(f"{base}/metrics").read()
            assert b"repro_worker_rows_scored_total 99" in metrics
            snap = json.loads(
                urllib.request.urlopen(f"{base}/snapshot").read()
            )
            assert snap["workers"]["counters"]["rows_scored"] == 99
            health = urllib.request.urlopen(f"{base}/healthz")
            assert health.status == 200

    def test_healthz_503_when_critical(self):
        with MetricsExporter(lambda: sample_snapshot("critical"),
                             port=0) as exporter:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{exporter.port}/healthz"
                )
            assert err.value.code == 503

    def test_unknown_path_404(self):
        with MetricsExporter(sample_snapshot, port=0) as exporter:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{exporter.port}/nope"
                )
            assert err.value.code == 404

    def test_snapshot_failure_surfaces_as_500(self):
        def boom():
            raise RuntimeError("collector gone")

        with MetricsExporter(boom, port=0) as exporter:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{exporter.port}/metrics"
                )
            assert err.value.code == 500

    def test_stop_is_idempotent(self):
        exporter = MetricsExporter(sample_snapshot, port=0)
        exporter.start()
        exporter.stop()
        exporter.stop()


class TestSnapshotFileWriter:
    def test_flush_appends_json_lines(self, tmp_path):
        path = tmp_path / "snaps.jsonl"
        writer = SnapshotFileWriter(sample_snapshot, path)
        writer.flush()
        writer.flush()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["generation"] == 3

    def test_periodic_writes_and_final_flush(self, tmp_path):
        path = tmp_path / "snaps.jsonl"
        writer = SnapshotFileWriter(sample_snapshot, path, interval_s=0.05)
        writer.start()
        import time

        time.sleep(0.2)
        writer.stop()
        assert writer.n_written >= 2
        lines = path.read_text().splitlines()
        assert len(lines) == writer.n_written


class TestTopRendering:
    def test_renders_the_headline_sections(self):
        text = render_top(sample_snapshot(state="critical"))
        assert "health: CRITICAL" in text
        assert "score_psi:critical" in text
        assert "rows" in text and "99" in text
        assert "w0:ok" in text and "w1:stale" in text
        assert "Gansu" in text
        assert "burn admission" in text

    def test_request_and_batch_latency_read_the_shared_keys(self):
        text = render_top(sample_snapshot())
        assert "request p50    1.00ms" in text
        assert "p99   10.00ms" in text
        assert "batch p99   10.00ms" in text

    def test_renders_without_live_sections(self):
        # serve-run without monitors still renders the frontend block.
        text = render_top({"unix": 0.0, "generation": 0, "pending": 0,
                           "workers_alive": 1,
                           "frontend": {"admitted": 4}})
        assert "admitted" in text

    def test_fetch_snapshot_round_trip(self):
        with MetricsExporter(sample_snapshot, port=0) as exporter:
            snap = fetch_snapshot(f"http://127.0.0.1:{exporter.port}")
        assert snap["generation"] == 3

    def test_read_snapshot_file_takes_last_complete_line(self, tmp_path):
        path = tmp_path / "snaps.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"generation": 1}) + "\n")
            fh.write(json.dumps({"generation": 2}) + "\n")
            fh.write('{"generation": 3, "trunc')   # torn final line
        assert read_snapshot_file(path)["generation"] == 2


def _prometheus_histogram(text: str, name: str) -> tuple[list, int, float]:
    """(bucket lines as (le, value), _count, _sum) of one histogram."""
    buckets, count, total = [], None, None
    for line in text.splitlines():
        metric, value = line.rsplit(" ", 1)
        if metric.startswith(f"{name}_bucket{{"):
            buckets.append((metric.split('"')[1], int(value)))
        elif metric == f"{name}_count":
            count = int(value)
        elif metric == f"{name}_sum":
            total = float(value)
    return buckets, count, total


class TestExactPrometheusSum:
    """``_sum`` is the exact observed total, not ``mean * count``."""

    @staticmethod
    def _check(text: str, name: str, exact: float) -> None:
        buckets, count, total = _prometheus_histogram(text, name)
        assert total == exact                 # bit for bit
        assert buckets[-1][0] == "+Inf"
        assert count == buckets[-1][1]
        values = [value for _, value in buckets]
        assert values == sorted(values)      # cumulative

    def test_frontend_request_latency_sum_is_exact(self):
        for seed in range(200):
            random.seed(seed)
            telemetry = FrontendTelemetry()
            exact = 0.0
            for _ in range(random.randint(1, 500)):
                seconds = random.uniform(1e-5, 0.5)
                telemetry.record_request(seconds)
                exact += seconds
            text = render_prometheus({"frontend": telemetry.snapshot()})
            self._check(text, "repro_frontend_request_latency", exact)

    def test_merged_worker_batch_latency_sum_is_exact(self):
        slab = MetricsSlab.allocate(n_workers=2)
        try:
            aggregator = MetricsAggregator(slab)
            random.seed(7)
            exact = 0.0
            for worker_id in range(2):
                telemetry = ServingTelemetry()
                total = 0.0
                for _ in range(333):
                    seconds = random.uniform(1e-5, 0.5)
                    telemetry.record_batch(1, seconds)
                    total += seconds
                slab.writer(worker_id).publish(telemetry)
                exact += total
            text = render_prometheus({"workers": aggregator.aggregate()})
        finally:
            slab.dispose()
        self._check(text, "repro_worker_batch_latency", exact)
