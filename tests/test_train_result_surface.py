"""Tests for the unified TrainResult scoring surface.

Every trainer's result — pooled or per-environment — must expose the same
scoring methods, so downstream code (pipeline, runner, persistence)
never needs isinstance checks.
"""

import numpy as np
import pytest

from repro.baselines.erm import ERMTrainer
from repro.baselines.finetune import FineTuneConfig, FineTuneTrainer
from repro.train.base import BaseTrainConfig, stack_environments
from repro.train.registry import available_trainers, make_trainer


@pytest.fixture(scope="module")
def surface_envs():
    rng = np.random.default_rng(11)
    from repro.data.dataset import EnvironmentData

    envs = []
    for name, shift in (("A", 0.0), ("B", 0.5), ("C", -0.5)):
        x = rng.standard_normal((120, 5))
        logit = 1.5 * x[:, 0] - x[:, 1] + shift
        y = (rng.random(120) < 1 / (1 + np.exp(-logit))).astype(float)
        y[0], y[1] = 0.0, 1.0
        envs.append(EnvironmentData(name, x, y))
    return envs


class TestEveryTrainerSatisfiesSurface:
    def test_all_registry_trainers(self, surface_envs):
        for name in available_trainers():
            result = make_trainer(name, n_epochs=2).fit(surface_envs)
            x, _ = stack_environments(surface_envs)
            assert isinstance(result.is_per_environment, bool), name
            theta = result.theta_for_environment("A")
            assert theta.shape == result.theta.shape, name
            scores = result.predict_proba_env("A", x)
            assert scores.shape == (x.shape[0],), name


class TestPooledResult:
    def test_not_per_environment(self, surface_envs):
        result = ERMTrainer(BaseTrainConfig(n_epochs=2)).fit(surface_envs)
        assert result.is_per_environment is False
        np.testing.assert_array_equal(result.theta_for_environment("A"),
                                      result.theta)


class TestPerEnvironmentResult:
    @pytest.fixture(scope="class")
    def finetuned(self, surface_envs):
        return FineTuneTrainer(FineTuneConfig(n_epochs=30)).fit(surface_envs)

    def test_is_per_environment(self, finetuned):
        assert finetuned.is_per_environment is True

    def test_env_theta_routed(self, finetuned, surface_envs):
        theta_a = finetuned.theta_for_environment("A")
        assert not np.array_equal(theta_a, finetuned.theta)
        x = surface_envs[0].features
        np.testing.assert_array_equal(
            finetuned.predict_proba_env("A", x),
            finetuned.model.predict_proba(theta_a, x),
        )

    def test_unseen_environment_uses_pooled_theta(self, finetuned,
                                                  surface_envs):
        x = surface_envs[0].features
        np.testing.assert_array_equal(
            finetuned.predict_proba_env("Z", x),
            finetuned.model.predict_proba(finetuned.theta, x),
        )
