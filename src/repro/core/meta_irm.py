"""Meta-IRM (Algorithm 1): MAML-based invariant risk minimisation.

Each outer iteration:

1. **Inner loop** (per environment m): evaluate the environment risk and
   take one gradient step, ``θ̄_m = θ − α ∇R^m(θ)``.
2. **Meta-losses**: ``R_meta(θ̄_m) = Σ_{m'≠m} R^{m'}(D_{m'}; θ̄_m)`` — the
   O(M²) step LightMIRM later removes.  The meta-IRM(S) variants of
   Table II approximate the sum over a random sample of S environments.
3. **Outer update**: ``θ ← θ − β ∇_θ(Σ_m R_meta(θ̄_m) + λ σ)`` with σ the
   std-dev of the meta-losses, differentiated exactly through the inner
   step via Hessian-vector products.

Steps 1 and 3 are :class:`~repro.core.meta_grad.MetaTrainer`'s; this
module supplies step 2.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import MetaIRMConfig
from repro.core.meta_grad import MetaTrainer
from repro.data.dataset import EnvironmentData
from repro.models.logistic import LogisticModel

__all__ = ["MetaIRMTrainer"]


class MetaIRMTrainer(MetaTrainer):
    """Trainer implementing Algorithm 1 (complete or sampled meta-IRM)."""

    config_class = MetaIRMConfig
    config: MetaIRMConfig

    def __init__(self, config: MetaIRMConfig | None = None):
        super().__init__(config)
        n_sampled = self.config.n_sampled_envs
        self.name = ("meta-IRM" if n_sampled is None
                     else f"meta-IRM({n_sampled})")

    def _meta_loss(
        self,
        model: LogisticModel,
        m: int,
        theta_bar: np.ndarray,
        environments: list[EnvironmentData],
    ) -> tuple[float, np.ndarray]:
        """The other environments' summed risk at ``θ̄_m``."""
        others = self._meta_environments(m, len(environments))
        meta_loss = 0.0
        meta_grad = np.zeros_like(theta_bar)
        for m_prime in others:
            other = environments[m_prime]
            loss_mp, grad_mp = model.loss_and_gradient(
                theta_bar, other.features, other.labels
            )
            meta_loss += loss_mp
            meta_grad += grad_mp
        # Sampled variants estimate the full (M-1)-environment sum from S
        # draws; the (M-1)/S factor keeps the estimator unbiased so that S
        # controls only the variance of the meta-loss, not the step size.
        scale = (len(environments) - 1) / len(others)
        return scale * meta_loss, scale * meta_grad

    def _meta_environments(self, m: int, n_envs: int) -> list[int]:
        """Environments entering ``R_meta(θ̄_m)``: all others, or a sample."""
        others = [i for i in range(n_envs) if i != m]
        s = self.config.n_sampled_envs
        if s is None or s >= len(others):
            return others
        chosen = self._rng.choice(len(others), size=s, replace=False)
        return [others[i] for i in chosen]
