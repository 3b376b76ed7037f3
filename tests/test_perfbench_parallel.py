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
    assert set(results) == {"fan_out"}

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

    out = tmp_path / "BENCH_parallel.json"
    payload = PARALLEL_PAYLOAD.write(out, results, config)
    rendered = PARALLEL_PAYLOAD.summarize(payload)
    assert "bit_identical=True" in rendered
    assert "fan_out" in rendered

    on_disk = json.loads(out.read_text())
    assert on_disk == payload
    assert PARALLEL_PAYLOAD.validate(on_disk) == []
    assert on_disk["format"] == 2
    assert on_disk["machine"]["effective_cpu_count"] >= 1
    assert on_disk["benchmarks"]["fan_out"]["bit_identical"] is True


def test_a_false_bit_identity_flag_fails_validation(tmp_path):
    results = {"fan_out": {
        "serial_s": 1.0,
        "workers": {"2": {"seconds": 0.6, "speedup_vs_serial": 1.7,
                          "bit_identical": False}},
        "bit_identical": False,
    }}
    payload = PARALLEL_PAYLOAD.write(tmp_path / "b.json", results,
                                     ParallelBenchConfig.smoke())
    problems = PARALLEL_PAYLOAD.validate(payload)
    assert any("fan_out.workers.2.bit_identical" in p for p in problems)
    assert any("fan_out.bit_identical" in p for p in problems)


def test_cli_bench_quick_writes_json(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "bench.json"
    assert main(["bench", "--quick", "--jobs", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert PARALLEL_PAYLOAD.validate(payload) == []
    assert payload["config"]["worker_counts"] == [2]
    assert list(payload["benchmarks"]["fan_out"]["workers"]) == ["2"]
    assert "speedup_vs_serial" in capsys.readouterr().out
