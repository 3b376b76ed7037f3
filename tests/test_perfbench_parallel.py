"""Smoke tests of the parallel-scaling benchmark suite."""

from __future__ import annotations

import json
import os

from repro.perfbench import (
    PARALLEL_PAYLOAD,
    ParallelBenchConfig,
    effective_cpu_count,
    machine_info,
    run_parallel_suite,
)


def test_machine_info_records_effective_cores():
    info = machine_info()
    assert "effective_cpu_count" in info
    assert info["effective_cpu_count"] == effective_cpu_count()
    assert 1 <= info["effective_cpu_count"] <= (os.cpu_count() or 1)


def test_smoke_suite_runs_and_is_bit_identical(tmp_path):
    config = ParallelBenchConfig.smoke()
    results = run_parallel_suite(config)

    fan_out = results["fan_out"]
    assert fan_out["n_tasks"] == (
        len(config.methods) * len(config.trainer_seeds)
    )
    assert fan_out["serial_s"] > 0
    assert set(fan_out["workers"]) == {
        str(count) for count in config.worker_counts
    }
    for entry in fan_out["workers"].values():
        assert entry["bit_identical"] is True
        assert entry["seconds"] > 0
        assert entry["speedup_vs_serial"] > 0
    assert fan_out["bit_identical"] is True

    assert results["tree_fit"]["median_s"] > 0
    assert "speedup_vs_seed" in results["tree_fit"]

    out = tmp_path / "BENCH_parallel.json"
    payload = PARALLEL_PAYLOAD.write(out, results, config)
    rendered = PARALLEL_PAYLOAD.summarize(payload)
    assert "bit_identical=True" in rendered
    assert "tree_fit" in rendered

    on_disk = json.loads(out.read_text())
    assert on_disk == payload
    assert PARALLEL_PAYLOAD.validate(on_disk) == []
    assert on_disk["machine"]["effective_cpu_count"] >= 1
    assert on_disk["benchmarks"]["fan_out"]["bit_identical"] is True
