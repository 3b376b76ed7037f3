"""Smoke tests for the tracked serving benchmark suite."""

import json

import pytest

from repro.perfbench.serving import (
    SERVING_PAYLOAD,
    ServingBenchConfig,
    run_serving_suite,
)


@pytest.fixture(scope="module")
def smoke_results():
    """One smoke-sized suite run shared by every assertion below."""
    return run_serving_suite(ServingBenchConfig.smoke())


class TestServingSuite:
    def test_all_scenarios_present(self, smoke_results):
        assert set(smoke_results) == {"micro_batching", "registry_load",
                                      "workers", "metrics_overhead"}

    def test_micro_batching_is_bit_identical(self, smoke_results):
        entry = smoke_results["micro_batching"]
        assert entry["bit_identical"] is True
        assert entry["micro_batched_s"] > 0
        assert entry["row_at_a_time_s"] > 0
        assert entry["speedup_batched_vs_rows"] > 0

    def test_registry_load_timed(self, smoke_results):
        assert smoke_results["registry_load"]["median_s"] > 0

    def test_workers_sweep_is_bit_identical(self, smoke_results):
        entry = smoke_results["workers"]
        assert entry["bit_identical"] is True
        counts = ServingBenchConfig.smoke().worker_counts
        assert set(entry["per_workers"]) == {str(c) for c in counts}
        for row in entry["per_workers"].values():
            assert row["bit_identical"] is True
            assert row["rows_per_s"] > 0
            assert 0 < row["p50_ms"] <= row["p99_ms"]

    def test_metrics_overhead_gates(self, smoke_results):
        """Bit-identity is gated; the per-row cost is a recorded timing
        (test_obs_overhead.py bounds the same path's calls per row)."""
        entry = smoke_results["metrics_overhead"]
        assert entry["bit_identical"] is True
        assert entry["within_budget"] is (
            entry["overhead_pct"] <= entry["budget_pct"]
        )
        assert entry["budget_pct"] == 2.0
        assert entry["plane_off_s"] > 0
        assert entry["plane_on_s"] > 0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_serving_suite(ServingBenchConfig.smoke(), only=["nope"])

    def test_written_payload_schema(self, smoke_results, tmp_path):
        path = tmp_path / "BENCH_serving.json"
        config = ServingBenchConfig.smoke()
        payload = SERVING_PAYLOAD.write(path, smoke_results, config)
        assert payload["format"] == SERVING_PAYLOAD.format
        assert payload["config"]["n_train"] == config.n_train
        assert "machine" in payload
        assert json.loads(path.read_text()) == payload

    def test_summary_mentions_each_scenario(self, smoke_results, tmp_path):
        payload = SERVING_PAYLOAD.write(tmp_path / "BENCH_serving.json",
                                        smoke_results,
                                        ServingBenchConfig.smoke())
        summary = SERVING_PAYLOAD.summarize(payload)
        for name in ("micro_batching", "registry_load", "workers",
                     "metrics_overhead"):
            assert name in summary


class TestPayloadValidation:
    def test_written_payload_validates_clean(self, smoke_results, tmp_path):
        path = tmp_path / "BENCH_serving.json"
        payload = SERVING_PAYLOAD.write(path, smoke_results,
                                        ServingBenchConfig.smoke())
        assert SERVING_PAYLOAD.validate(payload) == []

    def test_corruptions_are_reported(self, smoke_results, tmp_path):
        path = tmp_path / "BENCH_serving.json"
        broken = SERVING_PAYLOAD.write(path, smoke_results,
                                       ServingBenchConfig.smoke())
        broken["format"] = 99
        broken["benchmarks"]["workers"]["bit_identical"] = False
        del broken["benchmarks"]["micro_batching"]["bit_identical"]
        first = next(iter(broken["benchmarks"]["workers"]["per_workers"]))
        broken["benchmarks"]["workers"]["per_workers"][first]["p99_ms"] = 1e9
        broken["benchmarks"]["metrics_overhead"]["bit_identical"] = False
        broken["benchmarks"]["metrics_overhead"]["within_budget"] = False
        broken["benchmarks"]["cache_hot"] = {}
        assert SERVING_PAYLOAD.validate(broken) == [
            "format is 99, expected 3",
            "unknown scenarios: ['cache_hot']",
            "micro_batching.bit_identical: missing",
            f"workers.per_workers.{first}.p99_ms: 1000000000.0 outside "
            f"(0, 60000)",
            "workers.bit_identical is not true",
            "metrics_overhead.bit_identical is not true",
        ]
