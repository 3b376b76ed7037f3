"""Rot protection for the perf-benchmark harness.

Runs every microbenchmark once at :meth:`BenchConfig.smoke` sizes under
the tier-1 suite and checks the ``BENCH_gbdt.json`` schema, so benchmark
code stays runnable between real tracked runs.
"""

from __future__ import annotations

import json

import pytest

from repro.perfbench import GBDT_PAYLOAD, BenchConfig, run_suite
from repro.perfbench.suites import BENCHMARKS


@pytest.fixture(scope="module")
def smoke_results():
    config = BenchConfig.smoke()
    return config, run_suite(config)


def test_smoke_runs_every_benchmark(smoke_results):
    _, results = smoke_results
    assert set(results) == set(BENCHMARKS)


def test_smoke_entries_have_timings(smoke_results):
    _, results = smoke_results
    for name, entry in results.items():
        assert entry["median_s"] > 0, name
        assert entry["best_s"] > 0, name
        assert entry["repeats"] >= 1, name


def test_seed_baselines_present_where_tracked(smoke_results):
    _, results = smoke_results
    for name in ("histogram_build", "tree_fit", "leaf_predict",
                 "leaf_encode"):
        entry = results[name]
        assert entry["seed_median_s"] > 0
        assert entry["speedup_vs_seed"] > 0
    # The end-to-end trainer benchmark tracks trajectory only.
    assert "speedup_vs_seed" not in results["trainer_epoch"]
    assert results["trainer_epoch"]["per_epoch_s"] > 0


def test_bench_json_schema(tmp_path, smoke_results):
    config, results = smoke_results
    path = tmp_path / "BENCH_gbdt.json"
    payload = GBDT_PAYLOAD.write(path, results, config)
    on_disk = json.loads(path.read_text())
    assert on_disk == payload
    assert GBDT_PAYLOAD.validate(on_disk) == []
    assert on_disk["format"] == GBDT_PAYLOAD.format
    assert on_disk["config"]["n_rows"] == config.n_rows
    assert on_disk["config"]["max_bins"] == config.max_bins
    assert set(on_disk["benchmarks"]) == set(BENCHMARKS)
    assert "numpy" in on_disk["machine"]
    assert on_disk["machine"]["cpu_count"] >= 1


def test_summarize_mentions_every_benchmark(tmp_path, smoke_results):
    config, results = smoke_results
    payload = GBDT_PAYLOAD.write(tmp_path / "BENCH_gbdt.json", results,
                                 config)
    text = GBDT_PAYLOAD.summarize(payload)
    for name in BENCHMARKS:
        assert name in text


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown"):
        run_suite(BenchConfig.smoke(), only=["no_such_benchmark"])


def test_cli_bench_quick_writes_json(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "bench.json"
    code = main(["bench", "--quick", "--out", str(out),
                 "--only", "histogram_build", "leaf_predict"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload["benchmarks"]) == {"histogram_build", "leaf_predict"}
    captured = capsys.readouterr().out
    assert "histogram_build" in captured
