"""Unit tests for trial results in the run log and for the leaderboard."""

import dataclasses
import json

import pytest

from repro.metrics.fairness import EnvironmentScores, FairnessReport
from repro.obs.runlog import TUNE_TRIAL_EVENT, RunLogReader
from repro.obs.tracer import Tracer
from repro.tune import (
    ASHAConfig,
    DirtyTreeWarning,
    LeaderboardError,
    TrialResult,
    build_leaderboard,
    default_space,
    load_trial_records,
    ranked_trials,
    run_asha,
    validate_leaderboard,
    write_leaderboard,
)

SMALL = ASHAConfig(n_trials=3, eta=3, min_epochs=3, max_epochs=3, seed=1)


@pytest.fixture
def record():
    return TrialResult(
        trainer="ERM",
        trial_id="t001",
        rung=1,
        budget=8,
        params={"learning_rate": 0.30000000000000004, "l2": 1e-4},
        seed=12345,
        report=FairnessReport(
            per_environment={
                "zhejiang": EnvironmentScores(
                    "zhejiang", ks=0.1 + 0.2, auc=2.0 / 3.0,
                    n_samples=90, n_positive=11),
                "shandong": EnvironmentScores(
                    "shandong", ks=0.5, auc=0.75,
                    n_samples=30, n_positive=4),
            },
            skipped=("gansu",),
        ),
        data={"environments": "0123456789abcdef",
              "validation_fraction": 0.25},
        train_seconds=0.25,
        encode_seconds=0.0,
        encode_cached=None,
    )


def write_log(path, record):
    tracer = Tracer(path=path)
    tracer.write_manifest(command="load-test")
    tracer.event(TUNE_TRIAL_EVENT, **record.to_fields())
    tracer.close()


class TestTrialResult:
    def test_fields_round_trip(self, record):
        assert TrialResult.from_fields(record.to_fields()) == record

    def test_json_round_trip_is_exact(self, record):
        # Floats like 0.1 + 0.2 must survive the repr-JSON encoding
        # exactly — this is what makes resume bit-identical.
        encoded = json.dumps(record.to_fields())
        assert TrialResult.from_fields(json.loads(encoded)) == record

    def test_fairness_report_rebuild(self, record):
        encoded = json.dumps(record.to_fields())
        report = TrialResult.from_fields(json.loads(encoded)).report
        assert report.per_environment["zhejiang"].ks == 0.1 + 0.2
        assert report.per_environment["shandong"].n_positive == 4
        assert report.skipped == ("gansu",)
        assert report == record.report

    def test_event_is_a_valid_run_log_record(self, record, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, record)
        events = RunLogReader.read(path).events(TUNE_TRIAL_EVENT)
        assert len(events) == 1
        assert TrialResult.from_fields(events[0]["fields"]) == record


class TestTrialLog:
    def test_round_trip(self, record, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, record)
        assert load_trial_records(path) == {("ERM", "t001", 1): record}

    def test_tolerates_torn_tail_and_junk(self, record, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, record)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"kind": "event", "name": "other", "fields": {}}\n')
            handle.write('{"kind": "event", "name": "tune_tri')  # torn
        assert load_trial_records(path) == {("ERM", "t001", 1): record}

    def test_last_complete_record_wins(self, record, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, record)
        later = dataclasses.replace(record, train_seconds=9.0)
        with path.open("a", encoding="utf-8") as handle:
            line = {"ts": 0.0, "kind": "event", "name": TUNE_TRIAL_EVENT,
                    "fields": later.to_fields()}
            handle.write(json.dumps(line) + "\n")
        assert load_trial_records(path)[("ERM", "t001", 1)] == later


class TestLeaderboard:
    @pytest.fixture
    def results(self, tiny_envs):
        return [
            run_asha(default_space(name), tiny_envs, SMALL)
            for name in ("ERM", "IRMv1")
        ]

    @pytest.fixture
    def payload(self, results):
        return build_leaderboard(
            results, seed=1, search_config={"n_trials": 3}
        )

    def test_schema_valid(self, payload):
        assert validate_leaderboard(payload) is payload
        assert payload["kind"] == "tune_leaderboard"
        assert payload["seed"] == 1
        assert payload["search_config"] == {"n_trials": 3}
        assert {s["trainer"] for s in payload["searches"]} == {"ERM", "IRMv1"}
        assert "python" in payload["machine"]

    def test_global_ranking(self, payload):
        entries = payload["leaderboard"]
        assert [e["rank"] for e in entries] == list(range(1, 7))
        values = [e["objective_value"] for e in entries]
        assert values == sorted(values, reverse=True)
        assert {e["trainer"] for e in entries} == {"ERM", "IRMv1"}

    def test_ranked_trials_projection(self, payload):
        projected = ranked_trials(payload)
        assert len(projected) == len(payload["leaderboard"])
        for entry in projected:
            assert "train_seconds" not in entry
            assert "search_cost" not in entry
            assert "objective_value" in entry

    def test_entries_carry_search_cost(self, payload):
        for entry in payload["leaderboard"]:
            cost = entry["search_cost"]
            assert set(cost) == {"train_seconds", "encode_seconds",
                                 "encode_cached"}
            # Head-only searches never encode inline.
            assert cost["encode_seconds"] == 0.0
            assert cost["encode_cached"] is None

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            build_leaderboard([], seed=0)

    @pytest.mark.parametrize("mutate, match", [
        (lambda p: p.pop("machine"), "missing keys"),
        (lambda p: p.update(kind="leaderboard"), "expected 'tune_leaderboard'"),
        (lambda p: p.update(format=99), "format"),
        (lambda p: p.update(searches=[]), "non-empty"),
        (lambda p: p["searches"][0].pop("rungs"), "missing keys"),
        (lambda p: p["leaderboard"][0].pop("metrics"), "missing keys"),
        (lambda p: p["leaderboard"][0].pop("search_cost"), "missing keys"),
        (lambda p: p["leaderboard"][0].update(rank=5), "ranks must be"),
    ])
    def test_validation_errors(self, payload, mutate, match):
        broken = json.loads(json.dumps(payload))
        mutate(broken)
        with pytest.raises(LeaderboardError, match=match):
            validate_leaderboard(broken)

    def test_write_round_trip(self, payload, tmp_path):
        path = tmp_path / "TUNE_leaderboard.json"
        payload = {**payload, "git": "abc1234"}
        write_leaderboard(payload, path)
        restored = json.loads(path.read_text())
        assert validate_leaderboard(restored)
        assert ranked_trials(restored) == ranked_trials(payload)

    def test_write_rejects_invalid(self, payload, tmp_path):
        broken = dict(payload)
        broken.pop("git")
        with pytest.raises(LeaderboardError):
            write_leaderboard(broken, tmp_path / "nope.json")

    def test_dirty_stamp_warns(self, payload, tmp_path):
        dirty = {**payload, "git": "abc1234-dirty"}
        path = tmp_path / "dirty.json"
        with pytest.warns(DirtyTreeWarning, match="dirty git tree"):
            write_leaderboard(dirty, path)
        # Warned but still written — interactive runs keep their output.
        assert json.loads(path.read_text())["git"] == "abc1234-dirty"

    def test_clean_stamp_does_not_warn(self, payload, tmp_path, recwarn):
        clean = {**payload, "git": "abc1234"}
        write_leaderboard(clean, tmp_path / "clean.json")
        assert not [w for w in recwarn
                    if isinstance(w.message, DirtyTreeWarning)]
