"""Golden parameter hashes: the LR head's fitted ``theta``, byte for byte.

The hashes were taken when the leaf design matrix was still a
``scipy.sparse`` CSR matrix; any change to the order in which the design
products add up shows here as a different hash.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines.erm import ERMTrainer
from repro.core.config import LightMIRMConfig
from repro.core.lightmirm import LightMIRMTrainer
from repro.train.base import BaseTrainConfig


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
