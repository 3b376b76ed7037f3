"""Golden parameter hashes: the LR head's fitted ``theta``, byte for byte.

The first three hashes were taken when the leaf design matrix was still a
``scipy.sparse`` CSR matrix; any change to the order in which the design
products add up shows here as a different hash.  The others cover every
other trainer of the registry (fine-tuning with each environment's
``theta``) and were taken before any of their update steps was reworked.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines.erm import ERMTrainer
from repro.core.config import LightMIRMConfig
from repro.core.lightmirm import LightMIRMTrainer
from repro.train.base import BaseTrainConfig
from repro.train.registry import make_trainer


def theta_sha256(theta: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(theta, dtype=np.float64).tobytes()
    ).hexdigest()


@pytest.mark.parametrize("trainer, digest", [
    (lambda: LightMIRMTrainer(LightMIRMConfig(n_epochs=8)),
     "a89e298ba756d8ed810bdfc532fe5818fe5c33714e0c0f3494082b43bfc2cece"),
    (lambda: ERMTrainer(BaseTrainConfig(n_epochs=8)),
     "a068a90bf8c41ddd9129852e1693bcac4f0fa4879514534f47521f16b687f4de"),
    (lambda: ERMTrainer(BaseTrainConfig(n_epochs=8, batch_size=64)),
     "edb71684f78da1bfc4936d078ed307a6ab492d342a4cdbecc0d771e1a9f68253"),
], ids=["lightmirm", "erm", "erm_minibatch"])
def test_theta_matches_golden(train_envs, trainer, digest):
    assert theta_sha256(trainer().fit(train_envs).theta) == digest


def result_sha256(result) -> str:
    """``theta``, then each environment's own ``theta`` by sorted name."""
    digest = hashlib.sha256(
        np.ascontiguousarray(result.theta, dtype=np.float64).tobytes())
    env_thetas = getattr(result, "env_thetas", None) or {}
    for name in sorted(env_thetas):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(env_thetas[name],
                                           dtype=np.float64).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name, digest", [
    ("meta-IRM",
     "8814e8cbcc2253c25326e96c00ebe89ae41d06725259c44ca1332582fed8d07b"),
    ("meta-IRM(5)",
     "16d99eb3fdb51eb60f01f2550b941685c221a305f5e60abe472c421eb43e3169"),
    ("V-REx",
     "7a6dbc3a84b7e8a497029e3de774471597a2c5d2b25a83f8d6edd5ccf817bc8c"),
    ("Group DRO",
     "4c7034a79bd9c9750fe8698b2e5d05cdc7ec8b793b95d78e12a1948f751dbc98"),
    ("IRMv1",
     "70dbd7f3b7b2d62102a315684d482220654844aff941a807017219ac0cd52ae4"),
    ("Up Sampling",
     "82ebff7d13f4d74d0a36d9f153806fdaa7793859783933f1b8a7d3ffeb53aa19"),
    ("ERM + fine-tuning",
     "aa38f2dd0643a8a0712008a61621b1eaddc021a618108dc3b718e93df5df407c"),
], ids=["meta_irm", "meta_irm5", "vrex", "group_dro", "irmv1", "upsampling",
        "finetune"])
def test_every_trainer_matches_golden(train_envs, name, digest):
    result = make_trainer(name, n_epochs=8).fit(train_envs)
    if name == "ERM + fine-tuning":
        assert result.is_per_environment
    assert result_sha256(result) == digest
