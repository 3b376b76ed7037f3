"""Unit tests for the trainer base plumbing."""

import numpy as np
import pytest
from repro.baselines.erm import ERMTrainer
from repro.data.dataset import EnvironmentData
from repro.gbdt.leaf_encoder import LeafDesign
from repro.train.base import BaseTrainConfig, stack_environments


class TestConfigValidation:
    def test_bad_epochs(self):
        with pytest.raises(ValueError):
            BaseTrainConfig(n_epochs=0)

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            BaseTrainConfig(learning_rate=0)

    def test_bad_l2(self):
        with pytest.raises(ValueError):
            BaseTrainConfig(l2=-0.1)


class TestFitValidation:
    def test_empty_environment_list(self):
        with pytest.raises(ValueError, match="at least one"):
            ERMTrainer(BaseTrainConfig(n_epochs=1)).fit([])

    def test_dimension_mismatch(self, rng):
        envs = [
            EnvironmentData("a", rng.standard_normal((10, 3)),
                            np.ones(10)),
            EnvironmentData("b", rng.standard_normal((10, 4)),
                            np.ones(10)),
        ]
        with pytest.raises(ValueError, match="feature dim"):
            ERMTrainer(BaseTrainConfig(n_epochs=1)).fit(envs)

    def test_empty_environment_rejected(self, rng):
        envs = [
            EnvironmentData("a", rng.standard_normal((10, 3)), np.ones(10)),
            EnvironmentData("b", np.zeros((0, 3)), np.zeros(0)),
        ]
        with pytest.raises(ValueError, match="empty"):
            ERMTrainer(BaseTrainConfig(n_epochs=1)).fit(envs)


class TestStackEnvironments:
    def test_dense_stack(self, rng):
        envs = [
            EnvironmentData("a", rng.standard_normal((4, 3)), np.zeros(4)),
            EnvironmentData("b", rng.standard_normal((6, 3)), np.ones(6)),
        ]
        x, y = stack_environments(envs)
        assert x.shape == (10, 3)
        np.testing.assert_array_equal(y, [0] * 4 + [1] * 6)

    def test_sparse_stack(self, rng):
        eye = LeafDesign(np.arange(3)[None, :], 3)
        envs = [
            EnvironmentData("a", eye, np.zeros(3)),
            EnvironmentData("b", eye, np.ones(3)),
        ]
        x, y = stack_environments(envs)
        assert isinstance(x, LeafDesign)
        assert x.shape == (6, 3)
        np.testing.assert_array_equal(x.columns, [[0, 1, 2, 0, 1, 2]])


class TestTrainResult:
    def test_timer_attached(self, tiny_envs):
        from repro.timing import StepTimer

        timer = StepTimer(enabled=True)
        result = ERMTrainer(BaseTrainConfig(n_epochs=3)).fit(
            tiny_envs, timer=timer
        )
        assert result.timer is timer
        assert len(timer.epoch_seconds) == 3

    def test_disabled_timer_default(self, tiny_envs):
        result = ERMTrainer(BaseTrainConfig(n_epochs=2)).fit(tiny_envs)
        assert not result.timer.enabled
