"""Determinism audit: every registered trainer is bit-reproducible.

The GBDT kernels have a golden bit-equivalence suite (PR 1); this is the
trainer-side counterpart.  Any hidden RNG (an unseeded ``np.random`` call, a
set/dict iteration order leak, a parallel reduction) shows up here as a
theta or history mismatch between two same-seed fits.
"""

import numpy as np
import pytest

from repro.train.registry import available_trainers, make_trainer
from tests.harness import assert_deterministic, random_environments


@pytest.fixture(scope="module")
def audit_envs():
    return random_environments(
        np.random.default_rng(7), n_envs=3, n_per_env=80, n_features=4
    )


@pytest.mark.parametrize("name", available_trainers())
def test_trainer_bit_reproducible(name, audit_envs):
    assert_deterministic(
        lambda: make_trainer(name, n_epochs=6, seed=3), audit_envs
    )


def test_sampled_meta_irm_bit_reproducible(audit_envs):
    """The meta-IRM(S) variants add RNG environment sampling; seeded too."""
    assert_deterministic(
        lambda: make_trainer("meta-IRM(2)", n_epochs=6, seed=3), audit_envs
    )


@pytest.mark.parametrize("name", available_trainers())
def test_minibatch_path_bit_reproducible(name, audit_envs):
    """The mini-batch RNG stream must also be fully seeded."""
    assert_deterministic(
        lambda: make_trainer(name, n_epochs=4, seed=3, batch_size=32),
        audit_envs,
    )


def test_different_seeds_actually_differ(audit_envs):
    """Guards the audit itself: if seeds were ignored, the determinism
    tests above would pass vacuously."""
    a = make_trainer("LightMIRM", n_epochs=6, seed=0).fit(audit_envs)
    b = make_trainer("LightMIRM", n_epochs=6, seed=1).fit(audit_envs)
    assert not np.array_equal(a.theta, b.theta)
