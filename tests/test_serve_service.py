"""Tests for the scoring service (repro.serve.service).

Covers the service's contract: scores of every batch size bit-identical
to direct ``predict_proba``, challenger failures falling back to the
champion (and being counted), and drift-guard trips pinning traffic to the
champion.
"""

import numpy as np
import pytest

from repro.monitor.streaming import StreamingPSI
from repro.serve.degradation import DriftGuard
from repro.serve.registry import CHALLENGER, CHAMPION, ModelRegistry
from repro.serve.service import ScoringService


@pytest.fixture(scope="module")
def champion_model(tmp_path_factory, fitted_pipeline):
    registry = ModelRegistry(tmp_path_factory.mktemp("svc") / "reg")
    registry.save(fitted_pipeline)
    return registry.load(CHAMPION)


@pytest.fixture()
def request_rows(small_split):
    return small_split.test.features[:300]


class _BrokenModel:
    """Challenger stand-in whose every scoring call fails."""

    def predict_proba(self, rows):
        raise RuntimeError("challenger exploded")


class _ConstantModel:
    """Challenger stand-in distinguishable from the champion."""

    def predict_proba(self, rows):
        return np.full(rows.shape[0], 0.5)


class TestBitIdentity:
    def test_micro_batched_equals_direct(self, champion_model, request_rows):
        service = ScoringService(champion_model)
        got = np.concatenate([
            service.score_batch(request_rows[start:start + 64])
            for start in range(0, len(request_rows), 64)
        ])
        np.testing.assert_array_equal(
            got, champion_model.predict_proba(request_rows)
        )
        assert service.telemetry.batches == 5
        assert service.telemetry.rows_scored == len(request_rows)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4])
    def test_small_batches_equal_one_batch(self, champion_model, request_rows,
                                           chunk):
        """Bit-identical scores at every batch size, one row included."""
        batched = champion_model.predict_proba(request_rows)
        pieces = np.concatenate([
            champion_model.predict_proba(request_rows[start:start + chunk])
            for start in range(0, len(request_rows), chunk)
        ])
        np.testing.assert_array_equal(pieces, batched)

    def test_score_row_equals_batch_entry(self, champion_model, request_rows):
        service = ScoringService(champion_model)
        direct = champion_model.predict_proba(request_rows)[0]
        assert service.score_batch(request_rows[:1])[0] == direct
        assert service.telemetry.batches == 1

    def test_score_batch_validates_shape(self, champion_model):
        service = ScoringService(champion_model)
        with pytest.raises(ValueError):
            service.score_batch(np.zeros(5))
        with pytest.raises(ValueError):
            service.score_batch(np.zeros((2, 5, 1)))


class TestChallengerRouting:
    def test_healthy_challenger_serves(self, champion_model, request_rows):
        service = ScoringService(champion_model, challenger=_ConstantModel())
        scores = service.score_batch(request_rows[:10])
        np.testing.assert_array_equal(scores, np.full(10, 0.5))
        assert service.snapshot()["serving"] == CHALLENGER

    def test_challenger_failure_falls_back_and_is_counted(
            self, champion_model, request_rows):
        service = ScoringService(champion_model, challenger=_BrokenModel())
        scores = service.score_batch(request_rows[:20])
        np.testing.assert_array_equal(
            scores, champion_model.predict_proba(request_rows[:20])
        )
        assert service.telemetry.fallbacks == {"challenger_error": 1}

    def test_from_registry_loads_both_slots(self, tmp_path, fitted_pipeline,
                                            request_rows):
        registry = ModelRegistry(tmp_path / "reg")
        registry.save(fitted_pipeline)
        registry.save(fitted_pipeline, slot=CHALLENGER)
        service = ScoringService.from_registry(registry)
        assert service.challenger is not None
        scores = service.score_batch(request_rows[:5])
        np.testing.assert_array_equal(
            scores, service.champion.predict_proba(request_rows[:5])
        )

    def test_from_registry_without_challenger(self, tmp_path,
                                              fitted_pipeline):
        registry = ModelRegistry(tmp_path / "reg")
        registry.save(fitted_pipeline)
        service = ScoringService.from_registry(registry)
        assert service.challenger is None


class TestDriftGuard:
    def _guard(self, small_split, **kwargs):
        return DriftGuard(
            StreamingPSI.from_dataset(small_split.train), **kwargs
        )

    def test_trip_pins_champion_and_is_counted(self, champion_model,
                                               small_split, request_rows):
        guard = self._guard(small_split, psi_threshold=0.25, min_rows=1)
        service = ScoringService(
            champion_model, challenger=_ConstantModel(), drift_guard=guard
        )
        shifted = request_rows + 100.0   # wildly off-baseline traffic
        scores = service.score_batch(shifted)
        assert guard.tripped
        np.testing.assert_array_equal(
            scores, champion_model.predict_proba(shifted)
        )
        assert service.telemetry.fallbacks == {"drift_guard": 1}
        assert service.snapshot()["serving"] == CHAMPION

    def test_in_distribution_traffic_does_not_trip(self, champion_model,
                                                   small_split):
        guard = self._guard(small_split, psi_threshold=0.25, min_rows=1)
        service = ScoringService(
            champion_model, challenger=_ConstantModel(), drift_guard=guard
        )
        # Traffic drawn from the baseline window itself cannot drift.
        service.score_batch(small_split.train.features[:300])
        assert not guard.tripped
        assert service.telemetry.fallbacks == {}

    def test_trip_latches_until_reset(self, champion_model, small_split,
                                      request_rows):
        guard = self._guard(small_split, psi_threshold=0.25, min_rows=1)
        service = ScoringService(
            champion_model, challenger=_ConstantModel(), drift_guard=guard
        )
        service.score_batch(request_rows + 100.0)
        service.score_batch(request_rows)          # back in distribution...
        assert guard.tripped                       # ...but still latched
        assert service.telemetry.fallbacks["drift_guard"] == 2
        guard.reset_trip()
        assert not guard.tripped
        assert guard.stream.n_rows_seen == 0

    def test_guard_validation(self, small_split):
        with pytest.raises(ValueError):
            self._guard(small_split, psi_threshold=0.0)
        with pytest.raises(ValueError):
            self._guard(small_split, min_rows=0)

    def test_snapshot_includes_guard(self, champion_model, small_split,
                                     request_rows):
        # 10 rows make a noisy PSI estimate; a huge threshold keeps the
        # guard untripped so the snapshot shows the healthy state.
        guard = self._guard(small_split, psi_threshold=100.0, min_rows=1)
        service = ScoringService(champion_model, drift_guard=guard)
        service.score_batch(request_rows[:10])
        snap = service.snapshot()
        assert snap["drift_guard"]["tripped"] is False
        assert snap["telemetry"]["rows_scored"] == 10

