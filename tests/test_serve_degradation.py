"""Tests for graceful degradation (repro.serve.degradation) end to end.

Three layers: the :class:`DriftGuard` latch itself, the fallback
*ordering* inside :class:`ScoringService` (a tripped guard suspends the
challenger before it can even fail; a challenger exception falls back to
the champion), and the interplay with the live health plane (the
front-end reports the guard's PSI as a health signal only after the
guard's own warm-up gate).
"""

import numpy as np
import pytest

from repro.monitor.streaming import StreamingPSI
from repro.serve.degradation import DriftGuard
from repro.serve.frontend import FrontendConfig, ScoringFrontend
from repro.serve.service import ScoringService


def make_guard(threshold=0.25, min_rows=50, n_features=4, seed=0):
    rng = np.random.default_rng(seed)
    baseline = rng.standard_normal((2000, n_features))
    stream = StreamingPSI.from_baseline(baseline, n_bins=10)
    return DriftGuard(stream, psi_threshold=threshold, min_rows=min_rows)


def steady_rows(n, n_features=4, seed=1):
    return np.random.default_rng(seed).standard_normal((n, n_features))


def drifted_rows(n, n_features=4, seed=2):
    return 5.0 + np.random.default_rng(seed).standard_normal((n, n_features))


class FailingModel:
    """A challenger whose scoring always raises (deploy gone wrong)."""

    n_features = 4

    def predict_proba(self, rows):
        raise RuntimeError("challenger artifact corrupt")


class ConstantModel:
    """Champion stand-in with a recognisable constant output."""

    n_features = 4

    def __init__(self, value):
        self.value = value

    def predict_proba(self, rows):
        return np.full(len(rows), self.value)


class TestDriftGuard:
    def test_no_trip_before_min_rows(self):
        guard = make_guard(min_rows=500)
        decision = guard.observe(drifted_rows(100))
        assert not decision.tripped      # drifted, but window too small

    def test_trips_and_latches_on_drift(self):
        guard = make_guard(min_rows=50)
        decision = guard.observe(drifted_rows(100))
        assert decision.tripped
        assert decision.max_psi > 0.25
        # Latches: steady traffic afterwards does not un-trip it.
        guard.stream.reset()
        decision = guard.observe(steady_rows(100))
        assert decision.tripped

    def test_steady_traffic_never_trips(self):
        guard = make_guard(min_rows=50)
        decision = guard.observe(steady_rows(400))
        assert not decision.tripped
        assert decision.max_psi < 0.1

    def test_reset_trip_unlatches_and_restarts_window(self):
        guard = make_guard(min_rows=50)
        guard.observe(drifted_rows(100))
        guard.reset_trip()
        assert not guard.tripped
        assert guard.stream.n_rows_seen == 0
        assert not guard.observe(steady_rows(100)).tripped

    def test_snapshot_carries_guard_and_stream_state(self):
        guard = make_guard()
        guard.observe(steady_rows(400))
        snap = guard.snapshot()
        assert snap["tripped"] is False
        assert snap["psi_threshold"] == 0.25
        assert snap["min_rows"] == 50
        assert snap["n_rows_seen"] == 400
        assert "max_psi" in snap

    def test_validates_construction(self):
        with pytest.raises(ValueError, match="psi_threshold"):
            make_guard(threshold=0.0)
        with pytest.raises(ValueError, match="min_rows"):
            make_guard(min_rows=0)


class TestFallbackOrdering:
    """Who scores a batch, in priority order, and who gets blamed."""

    def _service(self, challenger, guard=None):
        return ScoringService(
            ConstantModel(0.25),
            challenger=challenger,
            drift_guard=guard,
        )

    def test_healthy_challenger_scores(self):
        service = self._service(ConstantModel(0.75), make_guard())
        scores = service.score_batch(steady_rows(8))
        np.testing.assert_array_equal(scores, np.full(8, 0.75))
        assert service.telemetry.fallbacks == {}

    def test_tripped_guard_suspends_challenger_before_it_runs(self):
        # The challenger RAISES if invoked: a tripped guard must route to
        # the champion without ever calling it (ordering, not luck).
        guard = make_guard(min_rows=50)
        guard.observe(drifted_rows(100))
        service = self._service(FailingModel(), guard)
        scores = service.score_batch(steady_rows(8))
        np.testing.assert_array_equal(scores, np.full(8, 0.25))
        assert service.telemetry.fallbacks == {"drift_guard": 1}

    def test_challenger_error_falls_back_to_champion(self):
        service = self._service(FailingModel())
        scores = service.score_batch(steady_rows(8))
        np.testing.assert_array_equal(scores, np.full(8, 0.25))
        assert service.telemetry.fallbacks == {"challenger_error": 1}

    def test_recovery_after_guard_reset(self):
        guard = make_guard(min_rows=50)
        guard.observe(drifted_rows(100))
        service = self._service(ConstantModel(0.75), guard)
        np.testing.assert_array_equal(
            service.score_batch(steady_rows(4)), np.full(4, 0.25)
        )
        guard.reset_trip()
        np.testing.assert_array_equal(
            service.score_batch(steady_rows(4)), np.full(4, 0.75)
        )
        # Exactly the one pre-reset batch fell back.
        assert service.telemetry.fallbacks == {"drift_guard": 1}


class TestRefusedBatchLeavesTheGuard:
    """A batch the service refuses is never counted by the drift guard."""

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_guard_state_unchanged_after_a_refused_batch(self, poison):
        guard = make_guard(min_rows=50)
        service = ScoringService(ConstantModel(0.25), drift_guard=guard)
        service.score_batch(steady_rows(300))
        seen, psi = guard.stream.n_rows_seen, guard.stream.max_psi()
        # searchsorted puts NaN and +inf in the top PSI cell and -inf in
        # the bottom one: counting these rows would lift max PSI from
        # 0.048 to 0.158 (NaN, +inf) or 0.217 (-inf).
        rows = steady_rows(60, seed=3)
        rows[:, 2] = poison
        with pytest.raises(ValueError, match="finite"):
            service.score_batch(rows)
        assert guard.stream.n_rows_seen == seen
        assert guard.stream.max_psi() == psi
        assert service.telemetry.batches == 1


class TestGuardHealthInterplay:
    """The front-end reports guard PSI as a health signal, gated on warm-up."""

    def _frontend(self, guard, scoring_model):
        from repro.obs.live.health import HealthMonitor

        # Never started: we are testing the signal plumbing, which runs
        # on the parent side only.
        return ScoringFrontend(
            scoring_model,
            FrontendConfig(n_workers=1),
            drift_guard=guard,
            health_monitor=HealthMonitor(recovery_polls=1),
        )

    def test_no_feature_psi_signal_before_min_rows(self, scoring_model):
        guard = make_guard(min_rows=500)
        guard.observe(drifted_rows(50))   # sparse window: PSI is noise
        frontend = self._frontend(guard, scoring_model)
        frontend._evaluate_health()
        assert frontend.health_monitor.state == "healthy"
        assert "feature_psi" not in frontend.health_monitor.snapshot()[
            "active_breaches"]

    def test_drifted_guard_drives_health_critical(self, scoring_model):
        guard = make_guard(min_rows=50)
        guard.observe(drifted_rows(100))
        frontend = self._frontend(guard, scoring_model)
        frontend._evaluate_health()
        snap = frontend.health_monitor.snapshot()
        assert snap["state"] == "critical"
        assert snap["active_breaches"]["feature_psi"] == "critical"

    def test_health_recovers_after_guard_reset(self, scoring_model):
        guard = make_guard(min_rows=50)
        guard.observe(drifted_rows(100))
        frontend = self._frontend(guard, scoring_model)
        frontend._evaluate_health()
        assert frontend.health_monitor.state == "critical"
        guard.reset_trip()
        # Enough steady rows that the quantile-bin PSI estimate settles
        # below the 0.1 warning band (small windows are noisy).
        guard.observe(steady_rows(500))
        frontend._evaluate_health()
        assert frontend.health_monitor.state == "healthy"
