"""Self-test of the benchmark harness at smoke size.

Run with ``pytest bench/`` from the root of a checkout (it is not part of
the tier-1 suite).  Every workload runs for one second on tiny inputs, so
this checks the harness, not performance.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def _run(workload: str, trace: int, cwd: pathlib.Path, *extra: str):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_emits_every_listed_metric_with_its_unit(workload, trace,
                                                     tmp_path):
    trace_out = tmp_path / "trace.jsonl"
    completed = _run(workload, trace, ROOT, "--smoke",
                     "--trace-out", str(trace_out))
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, completed.stdout
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in listed}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], float), name
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name

    if trace:
        from repro.obs import load_run

        names = {span["name"] for span in load_run(trace_out).spans()}
        assert names & {metric["name"] for metric in listed}
    else:
        assert not trace_out.exists()


def test_corrupted_score_trips_the_bit_identity_gate(monkeypatch, tmp_path):
    from bench import serve
    from bench.measure import Ledger

    class OffByOneUlp(serve.LoadGen):
        def __init__(self, frontend, rows, references, *args):
            references = [np.nextafter(r, 2.0) for r in references]
            super().__init__(frontend, rows, references, *args)

    monkeypatch.setattr(serve, "LoadGen", OffByOneUlp)
    result = serve.run("serve_steady", 3, 1.0, Ledger(), tmp_path,
                       smoke=True)
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert "!= predict_proba" in result["failures"][0]


def test_replay_that_differs_trips_the_determinism_gate(monkeypatch):
    from bench import train
    from bench.measure import Ledger

    seeds = iter(range(1000, 2000))
    monkeypatch.setattr(train, "fit_seed", lambda seed, index: next(seeds))
    result = train.run("train_meta_head", 3, 0.1, Ledger(), smoke=True)
    assert result["failed"] == 1
    assert "not bit-identical" in result["failures"][0]


def test_run_outside_a_full_checkout_gives_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("train_scale", 0, tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
