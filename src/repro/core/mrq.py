"""Meta-loss Replaying Queue (MRQ) — Eq. 8 and 9 of the paper.

LightMIRM keeps one fixed-length queue ``H_m`` per environment.  Each outer
iteration pushes the freshly computed loss of the sampled environment
``R^{s_m}(D_{s_m}; θ̄_m)`` into the back of the queue (older entries shift
forward and the oldest falls off), and the approximate meta-loss is the
decay-weighted sum

    R_meta(θ̄_m) = Σ_{i=1..L} γ^{L-i} · H_m[i]            (Eq. 9)

with the most recent entry weighted ``γ⁰ = 1``.  Only that newest entry is a
function of the current parameters; the replayed history is treated as
constant — which is exactly why LightMIRM's backward pass is O(1) per
environment ("only the last element in the queue has gradients").
"""

from __future__ import annotations

import numpy as np

__all__ = ["MetaLossReplayQueue"]


class MetaLossReplayQueue:
    """Fixed-length FIFO of recent meta-losses with decayed aggregation.

    Elements are initialised to zero (Algorithm 2, line 1), so during the
    first ``L - 1`` iterations the replayed portion under-counts — the same
    warm-up the paper's algorithm has.

    Attributes:
        length: Queue capacity ``L``.
        gamma: Decay coefficient ``γ`` in (0, 1]; ``γ = 1`` weights all
            entries equally (the worst row of Table IV).
    """

    def __init__(self, length: int, gamma: float):
        if length < 1:
            raise ValueError("queue length must be >= 1")
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        self.length = length
        self.gamma = gamma
        self._values = np.zeros(length)
        self._n_pushed = 0

    @property
    def values(self) -> np.ndarray:
        """Current queue contents, oldest first (read-only copy)."""
        return self._values.copy()

    @property
    def occupancy(self) -> float:
        """Fraction of slots holding real (pushed) losses, in [0, 1].

        Below 1.0 the queue is still warming up and the decayed sum
        under-counts the meta-loss — the observability layer charts this
        per epoch so warm-up effects are visible in run logs.
        """
        return min(self._n_pushed, self.length) / self.length

    def decay_mass(self) -> float:
        """Total Eq. 9 weight carried by the occupied (pushed) slots.

        The newest entry weighs ``γ⁰ = 1`` and each older real entry one
        power of ``γ`` more, so a warm queue reports the full geometric
        mass ``Σ_{i=0}^{L-1} γ^i`` and an empty one reports 0.
        """
        occupied = min(self._n_pushed, self.length)
        if occupied == 0:
            return 0.0
        return float(
            np.sum(self.gamma ** np.arange(occupied, dtype=np.float64))
        )

    def push(self, loss: float) -> None:
        """Shift the queue forward and place ``loss`` at the back (Eq. 8)."""
        if not np.isfinite(loss):
            raise ValueError(f"refusing to store non-finite loss {loss}")
        self._values[:-1] = self._values[1:]
        self._values[-1] = loss
        self._n_pushed += 1

    def decayed_sum(self) -> float:
        """Approximate meta-loss ``Σ γ^{L-i} H_m[i]`` (Eq. 9)."""
        weights = self.gamma ** np.arange(self.length - 1, -1, -1, dtype=np.float64)
        return float(weights @ self._values)

    def newest(self) -> float:
        """The newest (gradient-carrying) entry."""
        return float(self._values[-1])

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (
            f"MetaLossReplayQueue(L={self.length}, gamma={self.gamma}, "
            f"values={np.array2string(self._values, precision=4)})"
        )
