"""Smoke tests for the paper-scale benchmark suite and its JSON schema."""

import dataclasses
import json

import numpy as np
import pytest

from repro.perfbench.scale import (
    SCALE_PAYLOAD,
    ScaleBenchConfig,
    run_scale_point,
    run_scale_suite,
)


@pytest.fixture(scope="module")
def tiny_config():
    return dataclasses.replace(
        ScaleBenchConfig.smoke(),
        row_counts=(3_000,),
        total_features=26,
        n_spurious=4,
        chunk_rows=512,
        sample_rows=2_000,
    )


@pytest.fixture(scope="module")
def point(tiny_config):
    return run_scale_point(3_000, tiny_config)


class TestScalePoint:
    def test_stage_timings_present_and_positive(self, point):
        for stage in ("generate_pack_s", "gbdt_fit_s", "leaf_encode_s",
                      "lr_head_s", "total_s"):
            assert point[stage] >= 0.0
        total = (point["generate_pack_s"] + point["gbdt_fit_s"]
                 + point["leaf_encode_s"] + point["lr_head_s"])
        assert point["total_s"] == pytest.approx(total, rel=1e-6)

    def test_memory_fields(self, point):
        assert point["packed_bytes"] > 0
        assert point["naive_materialised_bytes"] == 3_000 * 26 * 8
        assert point["rss_source"] in ("vmhwm", "getrusage", "tracemalloc")
        # The packed uint8 layout beats the float64 matrix by ~8x.
        assert point["packed_bytes"] < point["naive_materialised_bytes"]

    def test_design_and_environments(self, point):
        assert point["design_nnz"] == 3_000 * 3  # n_rows * n_trees
        assert point["design_index_dtype"] == str(np.dtype(np.intp))
        assert point["n_environments"] >= 2
        assert point["dtype"] == "float32"


class TestScaleSuite:
    def test_in_process_suite_and_payload_round_trip(self, tiny_config,
                                                     tmp_path):
        results = run_scale_suite(tiny_config, isolate=False)
        assert set(results) == {"3000"}
        assert results["3000"]["isolated"] is False

        tolerance = {"passed": True, "auc_delta": 0.0, "ks_delta": 0.0}
        path = tmp_path / "BENCH_scale.json"
        payload = SCALE_PAYLOAD.write(path, results, tiny_config,
                                      tolerance=tolerance)
        assert SCALE_PAYLOAD.validate(payload) == []
        assert SCALE_PAYLOAD.validate(json.loads(path.read_text())) == []
        summary = SCALE_PAYLOAD.summarize(payload)
        assert "3000" in summary and "total_s=" in summary
        assert "tolerance" in summary

        payload["tolerance"]["passed"] = False
        assert SCALE_PAYLOAD.validate(payload) == [
            "tolerance.passed is not true"
        ]

    def test_isolated_point_measures_its_own_process(self, tiny_config):
        results = run_scale_suite(tiny_config, isolate=True)
        entry = results["3000"]
        assert entry["isolated"] is True
        if entry["rss_source"] in ("vmhwm", "getrusage"):
            # A fresh subprocess peak: far below this (pytest) process.
            assert entry["peak_rss_bytes"] > 0

    def test_save_model_produces_a_servable_artifact(self, tiny_config,
                                                     tmp_path):
        from repro.serve.registry import ModelRegistry

        artifact = tmp_path / "scale_model.json"
        run_scale_suite(tiny_config, isolate=False,
                        save_model=str(artifact))
        model = ModelRegistry.load_file(artifact)
        assert model.metadata["bench"] == "scale"
        assert model.metadata["scale_rows"] == 3_000

        import numpy as np
        rows = np.zeros((5, 26))
        proba = model.predict_proba(rows)
        assert proba.shape == (5,)
        assert np.isfinite(proba).all()


class TestValidation:
    def test_rejects_bad_payloads(self):
        problems = SCALE_PAYLOAD.validate({"format": 99})
        assert any("format" in p for p in problems)
        assert "missing top-level key 'tolerance'" in problems
        assert SCALE_PAYLOAD.validate({
            "format": 1, "config": {}, "machine": {},
            "tolerance": {"passed": True}, "benchmarks": {},
        }) == ["benchmarks section missing or empty"]
        problems = SCALE_PAYLOAD.validate({
            "format": 1, "config": {}, "machine": {},
            "tolerance": {"passed": True},
            "benchmarks": {"100": {"n_rows": 100, "dtype": 32}},
        })
        assert "100.total_s: missing" in problems
        assert "100.dtype: 32 is not str" in problems
        assert not any(p.startswith("100.n_rows") for p in problems)
