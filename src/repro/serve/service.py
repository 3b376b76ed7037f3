"""The scoring service: registry-backed, micro-batched, degradation-aware.

:class:`ScoringService` is the request-serving composition of the pieces in
this package: it loads champion/challenger :class:`ScoringModel` artifacts
(usually from a :class:`~repro.serve.registry.ModelRegistry`), coalesces
single-row requests through a :class:`~repro.serve.batching.MicroBatcher`
into one vectorized scoring call, and degrades gracefully — challenger exceptions and drift-guard trips fall back to the
champion, every fallback counted in
:class:`~repro.serve.telemetry.ServingTelemetry`.

Every path produces scores bit-identical to
``ScoringModel.predict_proba`` on the same rows: batching and fallback
never change a number, only when/how it is computed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.persist.artifacts import ScoringModel
from repro.serve.batching import MicroBatcher, Ticket
from repro.serve.degradation import DriftGuard
from repro.serve.registry import CHALLENGER, CHAMPION, ModelRegistry
from repro.serve.telemetry import ServingTelemetry

__all__ = ["ServiceConfig", "ScoringService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Operating knobs of one :class:`ScoringService`.

    Attributes:
        max_batch_size: Micro-batch auto-flush threshold.
        use_challenger: Route traffic to the challenger when one is
            loaded (falling back to the champion on failure/drift).
    """

    max_batch_size: int = 256
    use_challenger: bool = True

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")


class ScoringService:
    """Serves default probabilities from versioned scoring artifacts.

    Usage::

        service = ScoringService.from_registry(registry,
                                               config=ServiceConfig())
        tickets = [service.submit(row) for row in rows]
        service.flush()
        scores = [t.score for t in tickets]
        print(service.telemetry.summary())

    Args:
        champion: The known-good scorer; always loaded.
        challenger: Optional candidate scorer; used when configured, with
            champion fallback on any failure or drift-guard trip.
        config: Operating knobs (batching, routing).
        drift_guard: Optional :class:`DriftGuard`; when supplied, every
            scored batch is accumulated and a tripped guard pins scoring
            to the champion.
        telemetry: Optional externally-owned telemetry sink.
    """

    def __init__(
        self,
        champion: ScoringModel,
        challenger: ScoringModel | None = None,
        config: ServiceConfig | None = None,
        drift_guard: DriftGuard | None = None,
        telemetry: ServingTelemetry | None = None,
    ):
        self.champion = champion
        self.challenger = challenger
        self.config = config or ServiceConfig()
        self.drift_guard = drift_guard
        self.telemetry = telemetry or ServingTelemetry()
        self._batcher = MicroBatcher(
            self.score_batch, max_batch_size=self.config.max_batch_size
        )

    @classmethod
    def from_registry(
        cls,
        registry: ModelRegistry,
        config: ServiceConfig | None = None,
        drift_guard: DriftGuard | None = None,
    ) -> "ScoringService":
        """Load the champion (and challenger, if its slot is filled).

        Args:
            registry: Registry whose champion slot must be filled.
            config: Operating knobs.
            drift_guard: Optional drift guard.
        """
        slots = registry.slots()
        challenger = (registry.load(CHALLENGER)
                      if CHALLENGER in slots else None)
        return cls(
            champion=registry.load(CHAMPION),
            challenger=challenger,
            config=config,
            drift_guard=drift_guard,
        )

    # ------------------------------------------------------------- scoring

    def score_batch(self, rows: np.ndarray) -> np.ndarray:
        """Score a batch of raw feature rows through the full service path.

        Drift-guard accumulation, challenger routing with champion
        fallback and telemetry all happen here; the micro-batcher and the
        single-row path both land in this method.

        Args:
            rows: ``(n, d)`` raw feature matrix.

        Returns:
            ``n`` default probabilities, bit-identical to the serving
            model's ``predict_proba`` on the same rows.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError(f"expected an (n, d) matrix, got {rows.shape}")
        start = time.perf_counter()

        slot = CHAMPION
        model = self.champion
        if (self.challenger is not None and self.config.use_challenger):
            slot, model = CHALLENGER, self.challenger

        if self.drift_guard is not None:
            decision = self.drift_guard.observe(rows)
            if decision.tripped and slot == CHALLENGER:
                slot, model = CHAMPION, self.champion
                self.telemetry.record_fallback("drift_guard")

        if slot == CHALLENGER:
            try:
                scores = model.predict_proba(rows)
            except Exception:
                self.telemetry.record_fallback("challenger_error")
                scores = self.champion.predict_proba(rows)
        else:
            scores = model.predict_proba(rows)

        self.telemetry.record_batch(rows.shape[0], time.perf_counter() - start)
        return scores

    # -------------------------------------------------------- request path

    def submit(self, row: np.ndarray) -> Ticket:
        """Queue one request; it scores at the next (auto-)flush."""
        return self._batcher.submit(row)

    def flush(self) -> int:
        """Score every queued request now; returns the number scored."""
        return self._batcher.flush()

    @property
    def pending(self) -> int:
        """Requests queued behind the micro-batcher."""
        return self._batcher.pending

    def score_row(self, row: np.ndarray) -> float:
        """Score one row synchronously (bypasses the queue, same math)."""
        row = np.asarray(row, dtype=np.float64)
        if row.ndim != 1:
            raise ValueError(f"expected a 1-D feature row, got {row.shape}")
        start = time.perf_counter()
        score = float(self.score_batch(row[None, :])[0])
        self.telemetry.record_request(time.perf_counter() - start)
        return score

    # ----------------------------------------------------------- reporting

    def snapshot(self) -> dict:
        """Full JSON-compatible service state (telemetry + guard)."""
        payload = {
            "serving": CHALLENGER if (
                self.challenger is not None and self.config.use_challenger
                and not (self.drift_guard is not None
                         and self.drift_guard.tripped)
            ) else CHAMPION,
            "telemetry": self.telemetry.snapshot(),
        }
        if self.drift_guard is not None:
            payload["drift_guard"] = self.drift_guard.snapshot()
        return payload
