"""LightMIRM (Algorithm 2): linear-time meta-IRM.

The paper's contribution, and Algorithm 1 with one change: the meta-loss.
Per outer iteration and per environment m:

1. Inner step as in meta-IRM: ``θ̄_m = θ − α ∇R^m(θ)``.
2. **Environment sampling** — draw ONE other environment ``s_m ≠ m`` and
   compute only ``R^{s_m}(D_{s_m}; θ̄_m)`` (line 8-9 of Algorithm 2).
3. **Meta-loss replaying** — push that loss into the environment's MRQ and
   read the approximate meta-loss as the decayed queue sum (Eq. 9):
   ``R_meta(θ̄_m) = Σ_i γ^{L-i} H_m[i]``.
4. Outer update identical in form to meta-IRM, but since only the newest
   queue entry depends on the current parameters, the backward pass costs a
   single gradient + HVP per environment ("only the last element in the
   queue has gradients") — O(4M) total vs meta-IRM's O(2M²).

Steps 1 and 4 are :class:`~repro.core.meta_grad.MetaTrainer`'s; this
module supplies steps 2 and 3.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import LightMIRMConfig
from repro.core.meta_grad import MetaTrainer
from repro.core.mrq import MetaLossReplayQueue
from repro.data.dataset import EnvironmentData
from repro.models.logistic import LogisticModel

__all__ = ["LightMIRMTrainer"]


class LightMIRMTrainer(MetaTrainer):
    """Trainer implementing Algorithm 2."""

    name = "LightMIRM"
    config_class = LightMIRMConfig
    config: LightMIRMConfig
    #: Exposed after fit() for inspection/tests: one queue per env.
    queues_: list[MetaLossReplayQueue] | None = None

    def _begin_fit(self, environments: list[EnvironmentData]) -> None:
        super()._begin_fit(environments)
        cfg = self.config
        # Algorithm 2 line 1: initialise every H_m with zeros.
        self.queues_ = [
            MetaLossReplayQueue(cfg.queue_length, cfg.gamma)
            for _ in environments
        ]
        # This epoch's s_m per m, for the traced epoch event.
        self._sampled = [0] * len(environments)

    def _meta_loss(
        self,
        model: LogisticModel,
        m: int,
        theta_bar: np.ndarray,
        environments: list[EnvironmentData],
    ) -> tuple[float, np.ndarray]:
        """One sampled environment's risk at ``θ̄_m``, replayed by the MRQ.

        The gradient is the newest entry's alone: its decay weight is
        ``γ^{L-L} = 1`` and the replayed history is constant.
        """
        s_m = self._sample_other(m, len(environments), self._rng)
        self._sampled[m] = s_m
        sampled = environments[s_m]
        loss_s, grad_s = model.loss_and_gradient(
            theta_bar, sampled.features, sampled.labels
        )
        queue = self.queues_[m]
        queue.push(loss_s)
        return queue.decayed_sum(), grad_s

    def _trace_fields(self, environments: list[EnvironmentData]) -> dict:
        queues = self.queues_
        return {
            "sampled_envs": [environments[s].name for s in self._sampled],
            "mrq_occupancy": float(
                sum(q.occupancy for q in queues) / len(queues)
            ),
            "mrq_decay_mass": float(
                sum(q.decay_mass() for q in queues) / len(queues)
            ),
        }

    @staticmethod
    def _sample_other(m: int, n_envs: int, rng: np.random.Generator) -> int:
        """Uniformly sample an environment index different from ``m``."""
        if n_envs < 2:
            raise ValueError("LightMIRM needs at least two environments")
        s = int(rng.integers(0, n_envs - 1))
        return s if s < m else s + 1
