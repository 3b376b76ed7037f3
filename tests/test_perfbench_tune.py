"""Unit tests for the joint-search benchmark payload and validation."""

import json

from repro.perfbench.tune import TUNE_PAYLOAD, TuneBenchConfig


def make_payload():
    joint = {
        "trainer": "ERM",
        "n_trials": 8,
        "n_extractors": 2,
        "trial_evaluations": 12,
        "trials_per_extractor": 6.0,
        "cached": {
            "wall_s": 1.0, "encode_s": 0.4, "hits": 10, "misses": 2,
            "hit_rate": 10 / 12, "published_bytes": 300_000,
        },
        "uncached": {"wall_s": 2.5, "encode_s": 2.4},
        "encode_seconds_saved": 2.0,
        "encode_speedup": 6.0,
        "wall_speedup": 2.5,
        "bit_identical": True,
    }
    return {
        "format": TUNE_PAYLOAD.format,
        "config": {"n_trials": 8},
        "machine": {"python": "3.x"},
        "benchmarks": {"joint_search": joint},
    }


class TestValidation:
    def test_valid_payload_passes(self):
        assert TUNE_PAYLOAD.validate(make_payload()) == []

    def test_round_trips_through_json(self):
        payload = json.loads(json.dumps(make_payload()))
        assert TUNE_PAYLOAD.validate(payload) == []

    def test_non_object_rejected(self):
        assert TUNE_PAYLOAD.validate([1, 2]) == [
            "payload is not a JSON object"
        ]

    def test_missing_top_keys_rejected(self):
        payload = make_payload()
        payload.pop("machine")
        assert TUNE_PAYLOAD.validate(payload) == [
            "missing top-level key 'machine'"
        ]

    def test_wrong_format_rejected(self):
        payload = make_payload()
        payload["format"] = 99
        assert TUNE_PAYLOAD.validate(payload) == ["format is 99, expected 1"]

    def test_missing_joint_fields_rejected(self):
        payload = make_payload()
        payload["benchmarks"]["joint_search"].pop("encode_speedup")
        assert TUNE_PAYLOAD.validate(payload) == [
            "joint_search.encode_speedup: missing"
        ]

    def test_mismatched_leaderboards_rejected(self):
        payload = make_payload()
        payload["benchmarks"]["joint_search"]["bit_identical"] = False
        assert TUNE_PAYLOAD.validate(payload) == [
            "joint_search.bit_identical is not true"
        ]

    def test_inert_cache_rejected(self):
        payload = make_payload()
        payload["benchmarks"]["joint_search"]["cached"]["hits"] = 0
        assert TUNE_PAYLOAD.validate(payload) == [
            "joint_search.cached.hits: 0 outside (0, inf)"
        ]


class TestConfig:
    def test_tracked_config_amortises_enough(self):
        """The tracked configuration must give the cache >= 4 trials per
        distinct extractor (the acceptance floor for the 2x claim)."""
        config = TuneBenchConfig()
        # eta=2 over budgets [4, 8]: rung 0 evaluates all trials, rung 1
        # the surviving half.
        evaluations = config.n_trials + config.n_trials // config.eta
        assert evaluations / config.n_extractors >= 4

    def test_smoke_shrinks_but_keeps_shape(self):
        smoke = TuneBenchConfig.smoke()
        assert smoke.n_samples < TuneBenchConfig().n_samples
        assert smoke.n_extractors >= 2
        assert smoke.n_trials / smoke.n_extractors >= 2


class TestSummary:
    def test_summary_renders(self):
        text = TUNE_PAYLOAD.summarize(make_payload())
        assert "bit_identical=True" in text
        assert "hit_rate=0.8333" in text
        assert "encode_speedup=6" in text
