"""Unit tests for the ASHA scheduler: promotions, determinism, resume."""

import dataclasses

import numpy as np
import pytest

from repro.obs.runlog import (
    TUNE_RUNG_EVENT,
    TUNE_SPAN,
    TUNE_TRIAL_EVENT,
    RunLogReader,
)
from repro.obs.tracer import Tracer
from repro.tune import (
    ASHAConfig,
    HPSpace,
    SpaceError,
    default_space,
    load_trial_records,
    ranked_trials,
    run_asha,
    run_grid,
    rung_budgets,
    sample_trials,
    select_promotions,
)

#: Small-but-real search knobs shared by the integration tests.
SMALL = ASHAConfig(n_trials=4, eta=2, min_epochs=4, max_epochs=8, seed=3)


def search_payload(result):
    """A SearchResult's deterministic projection plus its rung history."""
    return ranked_trials([result]), result.rungs


class TestRungBudgets:
    def test_geometric_ladder(self):
        config = ASHAConfig(min_epochs=5, eta=3, max_epochs=45)
        assert rung_budgets(config) == [5, 15, 45]

    def test_cap_truncates(self):
        config = ASHAConfig(min_epochs=4, eta=3, max_epochs=12)
        assert rung_budgets(config) == [4, 12]

    def test_single_rung(self):
        config = ASHAConfig(min_epochs=10, eta=3, max_epochs=10)
        assert rung_budgets(config) == [10]

    @pytest.mark.parametrize("kwargs", [
        {"n_trials": 0},
        {"eta": 1},
        {"min_epochs": 0},
        {"min_epochs": 10, "max_epochs": 5},
        {"objective": "accuracy"},
        {"blend_weight": 1.5},
        {"validation_fraction": 0.0},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            ASHAConfig(**kwargs)


class TestSelectPromotions:
    def test_golden_top_third(self):
        scores = {"t000": 0.1, "t001": 0.9, "t002": 0.5,
                  "t003": 0.7, "t004": 0.3, "t005": 0.2}
        assert select_promotions(scores, eta=3) == ["t001", "t003"]

    def test_golden_half(self):
        scores = {"t000": 0.4, "t001": 0.2, "t002": 0.9, "t003": 0.6}
        assert select_promotions(scores, eta=2) == ["t002", "t003"]

    def test_tie_breaks_on_trial_id(self):
        scores = {"t002": 0.5, "t000": 0.5, "t001": 0.5}
        assert select_promotions(scores, eta=3) == ["t000"]

    def test_at_least_one_survives(self):
        assert select_promotions({"t000": 0.1, "t001": 0.2}, eta=3) \
            == ["t001"]

    def test_independent_of_dict_order(self):
        scores = {"t003": 0.7, "t001": 0.9, "t000": 0.1, "t002": 0.5}
        reordered = dict(sorted(scores.items()))
        assert select_promotions(scores, 2) == select_promotions(reordered, 2)


class TestSampleTrials:
    def test_deterministic(self):
        space = default_space("LightMIRM")
        a = sample_trials(space, 4, seed=7, trainer="LightMIRM")
        b = sample_trials(space, 4, seed=7, trainer="LightMIRM")
        assert a == b

    def test_seed_changes_population(self):
        space = default_space("LightMIRM")
        a = sample_trials(space, 4, seed=7, trainer="LightMIRM")
        b = sample_trials(space, 4, seed=8, trainer="LightMIRM")
        assert [t.params for t in a] != [t.params for t in b]

    def test_trainer_salts_the_stream(self):
        space = HPSpace("ERM", {"l2": default_space("ERM").params["l2"]})
        a = sample_trials(space, 3, seed=7, trainer="ERM")
        b = sample_trials(space, 3, seed=7, trainer="IRMv1")
        assert [t.params for t in a] != [t.params for t in b]

    def test_samples_lie_in_space(self):
        space = default_space("LightMIRM")
        for trial in sample_trials(space, 8, seed=0, trainer="LightMIRM"):
            assert space.contains(trial.params)
            assert 0 <= trial.seed < 2 ** 32


class TestRunASHA:
    _cache = {}

    @pytest.fixture
    def baseline(self, tiny_envs):
        # tiny_envs is deterministic, so one serial search serves every test.
        if "baseline" not in self._cache:
            self._cache["baseline"] = run_asha(
                default_space("LightMIRM"), tiny_envs, SMALL, n_jobs=1
            )
        return self._cache["baseline"]

    def test_rung_structure(self, baseline):
        assert [r.budget for r in baseline.rungs] == [4, 8]
        rung0, rung1 = baseline.rungs
        assert len(rung0.evaluated) == 4
        assert rung0.promoted == rung1.evaluated
        assert len(rung1.evaluated) == 2
        assert rung1.promoted == ()
        assert set(rung0.promoted) <= set(rung0.evaluated)

    def test_best_reached_last_rung(self, baseline):
        assert baseline.best.rung == 1
        assert baseline.best.budget == 8
        assert baseline.best is baseline.ranked()[0]

    def test_trials_keep_deepest_rung(self, baseline):
        by_id = {t.trial_id: t for t in baseline.trials}
        promoted = set(baseline.rungs[0].promoted)
        for trial_id, trial in by_id.items():
            assert trial.rung == (1 if trial_id in promoted else 0)

    def test_promotions_follow_objective(self, baseline):
        rung0_scores = {}
        # Re-derive rung-0 scores from the trials that stayed at rung 0
        # plus the rung history; promoted trials must dominate the rest.
        kept = [t for t in baseline.trials if t.rung == 0]
        promoted = set(baseline.rungs[0].promoted)
        for t in kept:
            rung0_scores[t.trial_id] = t.objective_value(
                baseline.objective, baseline.blend_weight
            )
        assert promoted.isdisjoint(rung0_scores)

    def test_bit_identical_across_jobs(self, tiny_envs, baseline):
        parallel = run_asha(default_space("LightMIRM"), tiny_envs, SMALL,
                            n_jobs=4)
        assert search_payload(parallel) == search_payload(baseline)

    def test_unbound_space_rejected(self):
        # Scheduling rebuilds trainers in workers by registry name, so a
        # space without one cannot even be built.
        with pytest.raises(SpaceError, match="registered trainer name"):
            HPSpace(None, {"l2": default_space("ERM").params["l2"]})


class TestRunLogAndResume:
    def run_traced(self, envs, path, resume=None):
        tracer = Tracer(path=path)
        tracer.write_manifest(command="tune-test")
        result = run_asha(default_space("ERM"), envs, SMALL,
                          tracer=tracer, resume=resume)
        tracer.close()
        return result

    def test_log_schema_and_events(self, tiny_envs, tmp_path):
        path = tmp_path / "tune.jsonl"
        result = self.run_traced(tiny_envs, path)
        run = RunLogReader.read(path)  # validates every record
        assert len(run.spans(TUNE_SPAN)) == 1
        # One trial event per (trial, rung) evaluation: 4 + 2.
        assert len(run.events(TUNE_TRIAL_EVENT)) == 6
        rung_events = run.events(TUNE_RUNG_EVENT)
        assert [e["fields"]["rung"] for e in rung_events] == [0, 1]
        assert rung_events[0]["fields"]["promoted"] == \
            list(result.rungs[0].promoted)

    def test_resume_is_bit_identical(self, tiny_envs, tmp_path):
        first_log = tmp_path / "first.jsonl"
        first = self.run_traced(tiny_envs, first_log)
        records = load_trial_records(first_log)
        assert len(records) == 6
        resumed = self.run_traced(tiny_envs, tmp_path / "second.jsonl",
                                  resume=records)
        assert search_payload(resumed) == search_payload(first)
        # The resumed run replays cached evaluations without retraining.
        resumed_times = {t.trial_id: t.train_seconds
                         for t in resumed.trials}
        first_times = {t.trial_id: t.train_seconds for t in first.trials}
        assert resumed_times == first_times

    def test_resume_from_interrupted_log(self, tiny_envs, tmp_path):
        first_log = tmp_path / "first.jsonl"
        first = self.run_traced(tiny_envs, first_log)
        # Interrupt mid-rung: drop the last trial event and tear the tail
        # mid-line, as a killed process would.
        lines = first_log.read_text().splitlines()
        trial_lines = [i for i, line in enumerate(lines)
                       if f'"{TUNE_TRIAL_EVENT}"' in line]
        torn = lines[: trial_lines[-1]] + [lines[trial_lines[-1]][:25]]
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(torn))
        records = load_trial_records(truncated)
        assert len(records) == 5  # the torn record is unrecoverable
        resumed = self.run_traced(tiny_envs, tmp_path / "resumed.jsonl",
                                  resume=records)
        assert search_payload(resumed) == search_payload(first)

    def test_stale_records_are_ignored(self, tiny_envs, tmp_path):
        first_log = tmp_path / "first.jsonl"
        self.run_traced(tiny_envs, first_log)
        records = load_trial_records(first_log)
        # A different search seed regenerates different trials, so no
        # stale record may be replayed into the new search.
        other = ASHAConfig(n_trials=4, eta=2, min_epochs=4, max_epochs=8,
                           seed=99)
        fresh = run_asha(default_space("ERM"), tiny_envs, other)
        resumed = run_asha(default_space("ERM"), tiny_envs, other,
                           resume=records)
        assert search_payload(resumed) == search_payload(fresh)

    def test_resume_after_changed_fraction_equals_fresh_run(
            self, tiny_envs, tmp_path):
        first_log = tmp_path / "first.jsonl"
        self.run_traced(tiny_envs, first_log)
        records = load_trial_records(first_log)
        # Same seed, same trials — but scored on another split, so no
        # record of the 0.25 run may stand in for a 0.5 evaluation.
        other = dataclasses.replace(SMALL, validation_fraction=0.5)
        fresh = run_asha(default_space("ERM"), tiny_envs, other)
        resumed = run_asha(default_space("ERM"), tiny_envs, other,
                           resume=records)
        assert search_payload(resumed) == search_payload(fresh)
        assert search_payload(fresh) != search_payload(
            self.run_traced(tiny_envs, tmp_path / "again.jsonl"))

    def test_resume_after_changed_data_retrains(self, tiny_envs, tmp_path):
        first_log = tmp_path / "first.jsonl"
        first = self.run_traced(tiny_envs, first_log)
        records = load_trial_records(first_log)
        shifted = [dataclasses.replace(env, features=env.features + 1e-3)
                   for env in tiny_envs]
        resumed = run_asha(default_space("ERM"), shifted, SMALL,
                           resume=records)
        first_times = {t.trial_id: t.train_seconds for t in first.trials}
        assert all(t.train_seconds != first_times[t.trial_id]
                   for t in resumed.trials)

    def test_record_without_data_key_retrains(self, tmp_path):
        from tests.test_tune_cache_golden import (
            SMALL as GOLDEN_SMALL,
            synthetic_environments,
        )
        from tests.test_tune_golden import LEGACY_TRIAL_LINE

        path = tmp_path / "old.jsonl"
        path.write_text(LEGACY_TRIAL_LINE + "\n", encoding="utf-8")
        records = load_trial_records(path)
        legacy = records[("LightMIRM", "t003", 1)]
        assert legacy.data is None
        resumed = run_asha(default_space("LightMIRM"),
                           synthetic_environments(np.float64),
                           GOLDEN_SMALL, resume=records)
        t003 = next(t for t in resumed.trials if t.trial_id == "t003")
        # Same trial, seed and budget: only the missing data key keeps
        # the record from replaying.
        assert (t003.params, t003.seed, t003.rung) == \
            (legacy.params, legacy.seed, legacy.rung)
        assert t003.train_seconds != legacy.train_seconds

    def test_resumed_log_is_self_contained(self, tiny_envs, tmp_path):
        first_log = tmp_path / "first.jsonl"
        self.run_traced(tiny_envs, first_log)
        records = load_trial_records(first_log)
        second_log = tmp_path / "second.jsonl"
        self.run_traced(tiny_envs, second_log, resume=records)
        # Replayed results are re-emitted, so the second log alone can
        # seed a third run.
        assert len(load_trial_records(second_log)) == len(records)


class TestRunGrid:
    def test_grid_over_engine(self, tiny_envs):
        space = HPSpace.grid("ERM", {"learning_rate": [0.5, 1.0]})
        serial = run_grid(space, tiny_envs, n_epochs=4, seed=3)
        parallel = run_grid(space, tiny_envs, n_epochs=4, seed=3, n_jobs=2)
        assert search_payload(serial) == search_payload(parallel)
        assert len(serial.trials) == 2
        assert [r.budget for r in serial.rungs] == [4]
        assert serial.rungs[0].promoted == ()

    def test_grid_requires_bound_space(self):
        with pytest.raises(SpaceError, match="registered trainer name"):
            HPSpace.grid(None, {"l2": [1e-4]})

    def test_grid_params_are_grid_points(self, tiny_envs):
        space = HPSpace.grid("ERM", {"learning_rate": [0.5, 1.0],
                                     "l2": [1e-4]})
        result = run_grid(space, tiny_envs, n_epochs=3)
        assert [t.params for t in result.trials] == space.grid_points()
