"""The scoring service: registry-backed, degradation-aware.

:class:`ScoringService` is the request-serving composition of the pieces in
this package: it loads champion/challenger :class:`ScoringModel` artifacts
(usually from a :class:`~repro.serve.registry.ModelRegistry`), scores a
batch of rows in one vectorized call, and degrades gracefully — challenger
exceptions and drift-guard trips fall back to the champion, every fallback
counted in :class:`~repro.serve.telemetry.ServingTelemetry`.

Every path produces scores bit-identical to
``ScoringModel.predict_proba`` on the same rows: batch size and fallback
never change a number, only when/how it is computed.
"""

from __future__ import annotations

import time

import numpy as np

from repro.numerics import check_finite
from repro.persist.artifacts import ScoringModel
from repro.serve.degradation import DriftGuard
from repro.serve.registry import CHALLENGER, CHAMPION, ModelRegistry
from repro.serve.telemetry import ServingTelemetry

__all__ = ["ScoringService"]


class ScoringService:
    """Serves default probabilities from versioned scoring artifacts.

    Usage::

        service = ScoringService.from_registry(registry)
        scores = service.score_batch(rows)
        print(service.telemetry.summary())

    Args:
        champion: The known-good scorer; always loaded.
        challenger: Optional candidate scorer; serves when loaded, with
            champion fallback on any failure or drift-guard trip.
        drift_guard: Optional :class:`DriftGuard`; when supplied, every
            scored batch is accumulated and a tripped guard pins scoring
            to the champion.
        telemetry: Optional externally-owned telemetry sink.
    """

    def __init__(
        self,
        champion: ScoringModel,
        challenger: ScoringModel | None = None,
        drift_guard: DriftGuard | None = None,
        telemetry: ServingTelemetry | None = None,
    ):
        self.champion = champion
        self.challenger = challenger
        self.drift_guard = drift_guard
        self.telemetry = telemetry or ServingTelemetry()

    @classmethod
    def from_registry(
        cls,
        registry: ModelRegistry,
        drift_guard: DriftGuard | None = None,
    ) -> "ScoringService":
        """Load the champion (and challenger, if its slot is filled).

        Args:
            registry: Registry whose champion slot must be filled.
            drift_guard: Optional drift guard.
        """
        slots = registry.slots()
        challenger = (registry.load(CHALLENGER)
                      if CHALLENGER in slots else None)
        return cls(
            champion=registry.load(CHAMPION),
            challenger=challenger,
            drift_guard=drift_guard,
        )

    # ------------------------------------------------------------- scoring

    def score_batch(self, rows: np.ndarray) -> np.ndarray:
        """Score a batch of raw feature rows through the full service path.

        Drift-guard accumulation, challenger routing with champion
        fallback and telemetry all happen here; this is the one request
        path.  A batch that is not 2-D or holds a NaN or ±inf raises
        ``ValueError`` before the drift guard observes it.

        Args:
            rows: ``(n, d)`` raw feature matrix.

        Returns:
            ``n`` default probabilities, bit-identical to the serving
            model's ``predict_proba`` on the same rows.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError(f"expected an (n, d) matrix, got {rows.shape}")
        check_finite(rows)
        start = time.perf_counter()

        slot = CHAMPION
        model = self.champion
        if self.challenger is not None:
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

    # ----------------------------------------------------------- reporting

    def snapshot(self) -> dict:
        """Full JSON-compatible service state (telemetry + guard)."""
        payload = {
            "serving": CHALLENGER if (
                self.challenger is not None
                and not (self.drift_guard is not None
                         and self.drift_guard.tripped)
            ) else CHAMPION,
            "telemetry": self.telemetry.snapshot(),
        }
        if self.drift_guard is not None:
            payload["drift_guard"] = self.drift_guard.snapshot()
        return payload
