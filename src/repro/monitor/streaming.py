"""Streaming drift accumulation for the serving path.

:func:`repro.monitor.drift.population_stability_index` needs both windows
in memory, which a scoring service never has — monitoring rows arrive one
micro-batch at a time.  :class:`StreamingPSI` freezes the baseline side
(quantile bin edges and expected cell probabilities, computed once from the
training window) and accumulates monitoring counts incrementally, so the
current PSI per feature is available after every ``update`` at O(d · bins)
memory regardless of traffic volume.

This class is the one PSI kernel: the batch function is a one-column
:class:`StreamingPSI` updated once with the monitoring sample, so given the
same baseline and the concatenation of all updates the two results are
*identical* — the binning, epsilon flooring and index formula exist once.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import LoanDataset

__all__ = ["StreamingPSI"]


class StreamingPSI:
    """Incremental per-feature Population Stability Index.

    Usage::

        stream = StreamingPSI.from_baseline(train.features,
                                            names=train.schema.names)
        for batch in request_batches:
            stream.update(batch)
            if stream.max_psi() > 0.25:
                ...  # degrade / alert

    Attributes:
        names: Feature names, one per column (generated when omitted).
        n_rows_seen: Monitoring rows accumulated so far.
    """

    def __init__(
        self,
        edges: list[np.ndarray],
        expected_probs: list[np.ndarray],
        names: list[str] | None = None,
        epsilon: float = 1e-4,
    ):
        if len(edges) != len(expected_probs):
            raise ValueError("edges and expected_probs disagree on features")
        self._edges = edges
        self._expected = expected_probs
        self._epsilon = epsilon
        self.names = list(names) if names is not None else [
            f"feature_{i}" for i in range(len(edges))
        ]
        if len(self.names) != len(edges):
            raise ValueError("one name per feature required")
        self._counts = [
            np.zeros(e.size + 1, dtype=np.int64) for e in edges
        ]
        self.n_rows_seen = 0

    @classmethod
    def from_baseline(
        cls,
        baseline: np.ndarray,
        n_bins: int = 10,
        names: list[str] | None = None,
        epsilon: float = 1e-4,
    ) -> "StreamingPSI":
        """Freeze the baseline window into bin edges + expected proportions.

        Args:
            baseline: ``(n, d)`` reference feature matrix (training window).
            n_bins: Number of quantile bins per feature.
            names: Optional feature names for reporting.
            epsilon: Floor for cell probabilities (kept finite).

        Returns:
            A streaming accumulator with zero monitoring rows.
        """
        baseline = np.asarray(baseline, dtype=np.float64)
        if baseline.ndim != 2 or baseline.shape[0] == 0:
            raise ValueError("baseline must be a non-empty 2-D matrix")
        if n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        quantiles = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
        edges, expected = [], []
        for column in range(baseline.shape[1]):
            values = baseline[:, column]
            column_edges = np.unique(np.quantile(values, quantiles))
            counts = np.bincount(
                np.searchsorted(column_edges, values, side="left"),
                minlength=column_edges.size + 1,
            )
            edges.append(column_edges)
            expected.append(
                np.maximum(counts / values.size, epsilon)
            )
        return cls(edges, expected, names=names, epsilon=epsilon)

    @classmethod
    def from_dataset(cls, baseline: LoanDataset,
                     n_bins: int = 10) -> "StreamingPSI":
        """Baseline from a dataset, carrying its schema's feature names."""
        return cls.from_baseline(
            baseline.features, n_bins=n_bins, names=list(baseline.schema.names)
        )

    @property
    def n_features(self) -> int:
        return len(self._edges)

    def update(self, rows: np.ndarray) -> None:
        """Accumulate one batch of monitoring rows.

        Args:
            rows: ``(n, d)`` monitoring feature rows (``(d,)`` accepted for
                a single row).
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.shape[1] != self.n_features:
            raise ValueError(
                f"rows have {rows.shape[1]} features, expected {self.n_features}"
            )
        for column in range(self.n_features):
            cells = np.searchsorted(self._edges[column], rows[:, column],
                                    side="left")
            self._counts[column] += np.bincount(
                cells, minlength=self._counts[column].size
            )
        self.n_rows_seen += rows.shape[0]

    def psi_per_feature(self) -> np.ndarray:
        """Current PSI per feature (zeros before any monitoring rows)."""
        if self.n_rows_seen == 0:
            return np.zeros(self.n_features)
        out = np.empty(self.n_features)
        for column in range(self.n_features):
            p = self._expected[column]
            q = np.maximum(self._counts[column] / self.n_rows_seen,
                           self._epsilon)
            out[column] = float(np.sum((p - q) * np.log(p / q)))
        return out

    def max_psi(self) -> float:
        """The worst per-feature PSI right now."""
        return float(self.psi_per_feature().max(initial=0.0))

    def snapshot(self) -> dict:
        """JSON-compatible current state (for serving telemetry)."""
        psi = self.psi_per_feature()
        return {
            "n_rows_seen": self.n_rows_seen,
            "max_psi": float(psi.max(initial=0.0)),
            "psi": {name: float(value)
                    for name, value in zip(self.names, psi)},
        }

    def reset(self) -> None:
        """Drop accumulated monitoring counts (baseline is kept)."""
        for counts in self._counts:
            counts[:] = 0
        self.n_rows_seen = 0
