"""Unit tests for the LightMIRM trainer (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.config import LightMIRMConfig, MetaIRMConfig
from repro.core.lightmirm import LightMIRMTrainer
from repro.core.meta_irm import MetaIRMTrainer
from repro.data.dataset import EnvironmentData


def _fit(envs, **kw):
    defaults = dict(n_epochs=30, learning_rate=0.1, inner_lr=0.1, seed=0)
    defaults.update(kw)
    return LightMIRMTrainer(LightMIRMConfig(**defaults)).fit(envs)


class TestTraining:
    def test_learns_the_signal(self, tiny_envs):
        result = _fit(tiny_envs, n_epochs=120)
        assert result.theta[0] > 0.3
        assert result.theta[1] < -0.1

    def test_deterministic_given_seed(self, tiny_envs):
        a = _fit(tiny_envs, seed=4)
        b = _fit(tiny_envs, seed=4)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_seed_changes_sampling(self, tiny_envs):
        a = _fit(tiny_envs, seed=4)
        b = _fit(tiny_envs, seed=5)
        assert not np.array_equal(a.theta, b.theta)

    def test_history_recorded(self, tiny_envs):
        result = _fit(tiny_envs, n_epochs=9)
        assert result.history.n_epochs == 9


class TestQueues:
    def test_one_queue_per_environment(self, tiny_envs):
        trainer = LightMIRMTrainer(
            LightMIRMConfig(n_epochs=4, queue_length=5)
        )
        trainer.fit(tiny_envs)
        assert trainer.queues_ is not None
        assert len(trainer.queues_) == len(tiny_envs)
        for queue in trainer.queues_:
            assert len(queue) == 5
            assert queue.occupancy == 4 / 5  # one push per epoch

    def test_queue_warmup(self, tiny_envs):
        trainer = LightMIRMTrainer(
            LightMIRMConfig(n_epochs=2, queue_length=5)
        )
        trainer.fit(tiny_envs)
        assert all(q.occupancy < 1.0 for q in trainer.queues_)

    def test_queue_values_finite(self, tiny_envs):
        trainer = LightMIRMTrainer(LightMIRMConfig(n_epochs=10))
        trainer.fit(tiny_envs)
        for queue in trainer.queues_:
            assert np.all(np.isfinite(queue.values))


class TestEnvironmentSampling:
    def test_sample_other_never_returns_self(self):
        rng = np.random.default_rng(0)
        for m in range(5):
            for _ in range(200):
                s = LightMIRMTrainer._sample_other(m, 5, rng)
                assert s != m
                assert 0 <= s < 5

    def test_sample_other_uniform(self):
        rng = np.random.default_rng(1)
        draws = [LightMIRMTrainer._sample_other(2, 4, rng)
                 for _ in range(3000)]
        counts = np.bincount(draws, minlength=4)
        assert counts[2] == 0
        others = counts[[0, 1, 3]]
        assert others.min() > 0.8 * others.mean()

    def test_two_envs_minimum(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            LightMIRMTrainer._sample_other(0, 1, rng)


class TestDegenerateEquivalence:
    def test_l1_gamma1_matches_one_sample_meta_irm_trajectory(self, tiny_envs):
        """LightMIRM with L=1, gamma=1 'degrades into meta-IRM sampling one
        province' (paper, Section IV-E1): with aligned sampling RNGs the two
        updates coincide on the first epoch, where no replay history exists.
        """
        config = LightMIRMConfig(n_epochs=1, queue_length=1, gamma=1.0,
                                 learning_rate=0.1, inner_lr=0.1, seed=9,
                                 lambda_penalty=3.0)
        light = LightMIRMTrainer(config).fit(tiny_envs)
        # Manually replicate one epoch of one-sample meta-IRM with the same
        # RNG stream used by LightMIRM's environment sampling.
        from repro.core.meta_grad import (
            backprop_through_inner_step,
            sigma_and_weights,
        )
        from repro.models.logistic import LogisticModel

        d = tiny_envs[0].features.shape[1]
        model = LogisticModel(d, l2=config.l2)
        theta = model.init_params(seed=9, scale=0.01)
        rng = np.random.default_rng(9)
        meta_losses = np.zeros(len(tiny_envs))
        grads = []
        for m, env in enumerate(tiny_envs):
            _, grad_m = model.loss_and_gradient(theta, env.features,
                                                env.labels)
            theta_bar = theta - 0.1 * grad_m
            s = int(rng.integers(0, len(tiny_envs) - 1))
            s = s if s < m else s + 1
            other = tiny_envs[s]
            loss_s, grad_s = model.loss_and_gradient(
                theta_bar, other.features, other.labels
            )
            meta_losses[m] = loss_s
            grads.append(grad_s)
        _, weights = sigma_and_weights(meta_losses, 3.0)
        outer = np.zeros_like(theta)
        for m, env in enumerate(tiny_envs):
            outer += weights[m] * backprop_through_inner_step(
                model, theta, env, grads[m], 0.1
            )
        expected = theta - 0.1 * outer
        np.testing.assert_allclose(light.theta, expected, atol=1e-12)


class TestFailureModes:
    def test_single_environment_rejected(self, rng):
        env = EnvironmentData("only", rng.standard_normal((50, 3)),
                              (rng.random(50) < 0.5).astype(float))
        with pytest.raises(ValueError):
            _fit([env], n_epochs=1)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LightMIRMConfig(queue_length=0)
        with pytest.raises(ValueError):
            LightMIRMConfig(gamma=0.0)
        with pytest.raises(ValueError):
            LightMIRMConfig(gamma=1.1)


class TestCostScaling:
    @staticmethod
    def _meta_loss_evaluations(trainer, envs, monkeypatch) -> int:
        """Loss evaluations made inside the ``calculating_meta_losses``
        steps of one fit (exact count, no timing)."""
        from contextlib import contextmanager

        from repro.models.logistic import LogisticModel
        from repro.timing import StepTimer

        state = {"in_meta": False, "calls": 0}
        original = LogisticModel.loss_and_gradient

        def counting(self, *args, **kwargs):
            state["calls"] += state["in_meta"]
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LogisticModel, "loss_and_gradient", counting)
        timer = StepTimer(enabled=True)
        timed_step = timer.step

        @contextmanager
        def step(name):
            with timed_step(name):
                state["in_meta"] = name == "calculating_meta_losses"
                try:
                    yield
                finally:
                    state["in_meta"] = False

        timer.step = step
        trainer.fit(envs, timer=timer)
        return state["calls"]

    def test_lightmirm_fewer_loss_evaluations_than_meta_irm(self, tiny_envs,
                                                            monkeypatch):
        """LightMIRM evaluates one sampled meta-loss per (epoch, env), O(M);
        meta-IRM evaluates all M-1 others, O(M^2)."""
        n_epochs, n_envs = 3, len(tiny_envs)
        light = self._meta_loss_evaluations(
            LightMIRMTrainer(LightMIRMConfig(n_epochs=n_epochs)), tiny_envs,
            monkeypatch,
        )
        meta = self._meta_loss_evaluations(
            MetaIRMTrainer(MetaIRMConfig(n_epochs=n_epochs)), tiny_envs,
            monkeypatch,
        )
        assert light == n_epochs * n_envs
        assert meta == n_epochs * n_envs * (n_envs - 1)
