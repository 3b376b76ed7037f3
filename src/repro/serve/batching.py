"""Micro-batching queue: coalesce scoring requests into vectorized calls.

Row-at-a-time scoring pays the GBDT routing + leaf encoding fixed costs per
request; the whole stack is vectorized, so coalescing N queued requests
into one ``predict_proba`` call amortises those costs N ways without
changing a single score (see the bit-identity test; ``bench/`` reports
``serve.service.us_per_row_b1``/``_bN``).  The batcher is synchronous and deterministic —
requests are scored in submission order when the queue reaches
``max_batch_size`` or on an explicit :meth:`flush` — which keeps it easy
to embed in a request loop, a thread, or an async wrapper.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["MicroBatcher", "Ticket"]


class Ticket:
    """Handle to one submitted request; resolves when its batch is scored."""

    __slots__ = ("_score",)

    def __init__(self) -> None:
        self._score: float | None = None

    @property
    def done(self) -> bool:
        """Whether the request's batch has been scored."""
        return self._score is not None

    @property
    def score(self) -> float:
        """The request's probability; raises if the batch is still queued."""
        if self._score is None:
            raise RuntimeError("request not scored yet; flush the batcher")
        return self._score

    def _resolve(self, score: float) -> None:
        self._score = score


class MicroBatcher:
    """Coalesces single-row requests into one vectorized scoring call.

    Args:
        score_batch: Vectorized scorer mapping an ``(n, d)`` matrix to
            ``n`` probabilities.
        max_batch_size: Auto-flush threshold; queue length never exceeds it.
    """

    def __init__(
        self,
        score_batch: Callable[[np.ndarray], np.ndarray],
        max_batch_size: int = 256,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self._score_batch = score_batch
        self.max_batch_size = max_batch_size
        self._rows: list[np.ndarray] = []
        self._tickets: list[Ticket] = []
        self.batches_flushed = 0
        self.rows_scored = 0

    @property
    def pending(self) -> int:
        """Requests queued but not yet scored."""
        return len(self._tickets)

    def submit(self, row: np.ndarray) -> Ticket:
        """Queue one feature row; auto-flushes at ``max_batch_size``.

        Args:
            row: A ``(d,)`` raw feature vector.

        Returns:
            A :class:`Ticket` that resolves at the next flush (immediately,
            if this submission filled the batch).
        """
        row = np.asarray(row, dtype=np.float64)
        if row.ndim != 1:
            raise ValueError(f"expected a 1-D feature row, got {row.shape}")
        ticket = Ticket()
        self._rows.append(row)
        self._tickets.append(ticket)
        if len(self._tickets) >= self.max_batch_size:
            self.flush()
        return ticket

    def flush(self) -> int:
        """Score every queued request in one vectorized call.

        Returns:
            The number of requests scored (0 when the queue was empty).
        """
        if not self._tickets:
            return 0
        rows = np.vstack(self._rows)
        tickets = self._tickets
        self._rows, self._tickets = [], []
        scores = np.asarray(self._score_batch(rows), dtype=np.float64)
        if scores.shape != (len(tickets),):
            raise RuntimeError(
                f"scorer returned {scores.shape}, expected ({len(tickets)},)"
            )
        for ticket, score in zip(tickets, scores):
            ticket._resolve(float(score))
        self.batches_flushed += 1
        self.rows_scored += len(tickets)
        return len(tickets)
