"""Unit tests for environment splitting and exhaustive grid search."""

import numpy as np
import pytest

from repro.tune import HPSpace, SearchResult, run_grid, split_environments


class TestSplitEnvironments:
    def test_stratified_split(self, tiny_envs):
        fit, valid = split_environments(tiny_envs, validation_fraction=0.25)
        assert [e.name for e in fit] == [e.name for e in valid]
        for env, f, v in zip(tiny_envs, fit, valid):
            assert f.n_samples + v.n_samples == env.n_samples
            assert v.n_samples == round(0.25 * env.n_samples)

    def test_deterministic(self, tiny_envs):
        a_fit, _ = split_environments(tiny_envs, seed=3)
        b_fit, _ = split_environments(tiny_envs, seed=3)
        np.testing.assert_array_equal(a_fit[0].labels, b_fit[0].labels)

    def test_accepts_seed_sequence(self, tiny_envs):
        # An int seed is tagged into a SeedSequence stream internally, so
        # passing the pre-derived stream must give the identical split.
        stream = np.random.SeedSequence([3, 0x73706C69])
        a_fit, _ = split_environments(tiny_envs, seed=3)
        b_fit, _ = split_environments(tiny_envs, seed=stream)
        np.testing.assert_array_equal(a_fit[0].labels, b_fit[0].labels)

    def test_invalid_fraction(self, tiny_envs):
        with pytest.raises(ValueError):
            split_environments(tiny_envs, validation_fraction=1.0)

    def test_too_small_environment(self, rng):
        from repro.data.dataset import EnvironmentData

        env = EnvironmentData("tiny", rng.standard_normal((1, 3)),
                              np.ones(1))
        with pytest.raises(ValueError, match="too small"):
            split_environments([env], validation_fraction=0.5)


class TestGridSearchShim:
    """Exhaustive search through ``run_grid`` on a bound ``HPSpace.grid``."""

    def test_evaluates_full_product(self, tiny_envs):
        result = run_grid(
            HPSpace.grid("ERM", {"learning_rate": [0.5, 1.0],
                                 "l2": [1e-4, 1e-2]}),
            tiny_envs, n_epochs=10,
        )
        assert isinstance(result, SearchResult)
        assert len(result.trials) == 4
        seen = {tuple(sorted(t.params.items())) for t in result.trials}
        assert len(seen) == 4

    def test_best_maximises_objective(self, tiny_envs):
        result = run_grid(
            HPSpace.grid("ERM", {"learning_rate": [0.01, 1.0]}),
            tiny_envs, objective="mKS", n_epochs=10,
        )
        values = [t.report.mean_ks for t in result.trials]
        assert result.best.report.mean_ks == max(values)

    def test_ranked_order(self, tiny_envs):
        result = run_grid(
            HPSpace.grid("ERM", {"learning_rate": [0.01, 0.5, 1.0]}),
            tiny_envs, objective="mKS", n_epochs=10,
        )
        ranked = result.ranked()
        assert ranked[0] is max(
            result.trials, key=lambda t: t.report.mean_ks
        )
        scores = [t.report.mean_ks for t in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_blend_objective(self, tiny_envs):
        result = run_grid(
            HPSpace.grid("ERM", {"learning_rate": [0.5, 1.0]}),
            tiny_envs,
            objective="blend",
            blend_weight=1.0,  # pure worst-province selection
            n_epochs=10,
        )
        values = [t.report.worst_ks for t in result.trials]
        assert result.best.report.worst_ks == max(values)

    def test_lightmirm_grid(self, tiny_envs):
        result = run_grid(
            HPSpace.grid("LightMIRM", {"queue_length": [1, 5],
                                       "gamma": [0.9]}),
            tiny_envs, n_epochs=15,
        )
        assert len(result.trials) == 2
        assert result.best.params["gamma"] == 0.9

    def test_records_training_time(self, tiny_envs):
        result = run_grid(
            HPSpace.grid("ERM", {"learning_rate": [1.0]}),
            tiny_envs, n_epochs=5,
        )
        assert result.trials[0].train_seconds > 0

    def test_trial_surface(self, tiny_envs):
        # The grid shares the unified TrialResult surface with ASHA.
        result = run_grid(
            HPSpace.grid("ERM", {"learning_rate": [0.5, 1.0]}),
            tiny_envs, n_epochs=5,
        )
        trial = result.trials[0]
        payload = trial.to_json()
        assert payload["trial"] == trial.trial_id
        assert payload["rung"] == 0 and payload["budget"] == 5
        assert set(payload["metrics"]) == {"mKS", "wKS", "mAUC", "wAUC"}
        value = trial.objective_value("blend", 0.5)
        assert value == pytest.approx(
            0.5 * trial.report.mean_ks + 0.5 * trial.report.worst_ks
        )
        assert result.rungs[0].evaluated == tuple(
            t.trial_id for t in result.trials
        )

    def test_invalid_objective(self, tiny_envs):
        with pytest.raises(ValueError, match="objective"):
            run_grid(
                HPSpace.grid("ERM", {"learning_rate": [1.0]}),
                tiny_envs, objective="accuracy",
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            HPSpace.grid("ERM", {})
