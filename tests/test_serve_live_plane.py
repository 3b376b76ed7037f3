"""Integration tests for the live telemetry plane on the real front-end.

The acceptance criteria of the telemetry-plane PR, verified against live
worker processes: exact cross-process counter aggregation in a 4-worker
soak, counter survival across a worker death/respawn, bit-identical
scores with the plane on vs off, and a forced drift episode producing a
schema-valid ``alert`` → ``health_transition`` → ``lifecycle_stage``
event sequence through the lifecycle controller.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.monitor.streaming import StreamingPSI
from repro.obs.live import (
    CalibrationMonitor,
    HealthMonitor,
    ScoreDriftMonitor,
    SLOConfig,
    SLOTracker,
)
from repro.obs.runlog import (
    ALERT_EVENT,
    HEALTH_TRANSITION_EVENT,
    LIFECYCLE_STAGE_EVENT,
    RunLogReader,
)
from repro.obs.tracer import Tracer
from repro.serve import frontend as frontend_module
from repro.serve.degradation import DriftGuard
from repro.serve.frontend import FrontendConfig, ScoringFrontend


@pytest.fixture(autouse=True)
def _fast_live_ticks(monkeypatch):
    """Tick the collector's live plane every 10 ms instead of 250 ms."""
    monkeypatch.setattr(frontend_module, "_LIVE_POLL_INTERVAL_S", 0.01)


def _start_live(model, n_workers=4, **kwargs):
    config = FrontendConfig(n_workers=n_workers, max_batch_size=16,
                            live_metrics=True)
    return ScoringFrontend(model, config, **kwargs).start()


class TestExactAggregation:
    def test_four_worker_soak_counts_every_row_exactly_once(
            self, scoring_model, request_rows):
        frontend = _start_live(scoring_model, n_workers=4)
        try:
            results = frontend.score_stream(request_rows)
            assert all(r.ok for r in results)
            snap = frontend.snapshot()
        finally:
            frontend.stop()

        workers = snap["workers"]
        # EXACT: every admitted row scored once, across 4 processes.
        assert workers["counters"]["rows_scored"] == len(request_rows)
        assert workers["workers_reporting"] == 4
        assert workers["counters"]["batches"] >= 4
        hist = workers["histograms"]["batch_latency"]
        assert hist["count"] == workers["counters"]["batches"]
        # Merged-schema satellite: frontend and worker views in one dict.
        assert snap["telemetry"]["admitted"] == len(request_rows)
        assert "liveness" in snap

    def test_aggregate_equals_sum_of_per_worker_rows(self, scoring_model,
                                                     request_rows):
        frontend = _start_live(scoring_model, n_workers=4)
        try:
            frontend.score_stream(request_rows)
            # Ground truth: read each worker's own slab row and sum.
            samples = frontend._aggregator.read_all()
            merged = frontend._aggregator.aggregate()
            by_hand = sum(s["counters"]["rows_scored"]
                          for s in samples.values())
            assert merged["counters"]["rows_scored"] == by_hand
        finally:
            frontend.stop()

    def test_post_stop_snapshot_still_reports_workers(self, scoring_model,
                                                      request_rows):
        frontend = _start_live(scoring_model, n_workers=2)
        try:
            frontend.score_stream(request_rows[:50])
        finally:
            frontend.stop()
        workers = frontend.snapshot()["workers"]
        assert workers["counters"]["rows_scored"] == 50
        # The slab is disposed after stop; the view is the final capture.
        assert frontend._slab is None

    def test_worker_death_preserves_lifetime_totals(self, scoring_model,
                                                    request_rows):
        rows = request_rows[:80]
        frontend = _start_live(scoring_model, n_workers=2)
        try:
            phase1 = frontend.score_stream(rows)
            assert all(r.ok for r in phase1)
            # Kill one idle worker: its published totals are complete, so
            # the absorb-on-reap path must preserve them exactly.
            os.kill(frontend.worker_pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while (frontend.telemetry.snapshot()["worker_deaths"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            phase2 = frontend.score_stream(rows)
            assert all(r.ok for r in phase2)
            snap = frontend.snapshot()
        finally:
            frontend.stop()
        assert snap["workers"]["counters"]["rows_scored"] == 2 * len(rows)


class TestBitIdentity:
    def test_scores_identical_with_plane_on_and_off(self, scoring_model,
                                                    request_rows):
        reference = scoring_model.predict_proba(request_rows)

        plain = ScoringFrontend(
            scoring_model, FrontendConfig(n_workers=2, max_batch_size=16)
        ).start()
        try:
            off = [r.score for r in plain.score_stream(request_rows)]
        finally:
            plain.stop()

        live = _start_live(
            scoring_model, n_workers=2,
            score_drift=ScoreDriftMonitor(reference, window_rows=50),
            calibration=CalibrationMonitor(float(reference.mean())),
            slo_tracker=SLOTracker([SLOConfig("admission",
                                              error_budget=0.01)]),
            health_monitor=HealthMonitor(),
        )
        try:
            on = [r.score for r in live.score_stream(request_rows)]
        finally:
            live.stop()

        np.testing.assert_array_equal(np.array(off), reference)
        np.testing.assert_array_equal(np.array(on), reference)


class TestLiveSnapshotShape:
    def test_all_sections_present_when_fully_wired(self, scoring_model,
                                                   request_rows, small_split):
        reference = scoring_model.predict_proba(request_rows)
        guard = DriftGuard(StreamingPSI.from_dataset(small_split.train),
                           psi_threshold=0.25)
        frontend = _start_live(
            scoring_model, n_workers=2,
            drift_guard=guard,
            score_drift=ScoreDriftMonitor(reference, window_rows=50),
            calibration=CalibrationMonitor(float(reference.mean())),
            slo_tracker=SLOTracker([
                SLOConfig("admission", error_budget=0.01),
                SLOConfig("latency", error_budget=0.05),
            ]),
            health_monitor=HealthMonitor(),
        )
        try:
            provinces = small_split.test.provinces[:len(request_rows)]
            frontend.score_stream(request_rows, provinces=provinces)
            snap = frontend.live_snapshot()
        finally:
            frontend.stop()
        assert {"unix", "generation", "pending", "workers_alive",
                "frontend", "workers", "liveness", "drift_guard",
                "monitors", "health"} <= set(snap)
        assert {"score_drift", "calibration", "slo"} <= set(
            snap["monitors"])
        # Monitors actually saw the resolved scores.
        assert snap["monitors"]["calibration"]["n_seen"] > 0
        provinces_seen = snap["monitors"]["score_drift"]["provinces"]
        pending = sum(p["pending_rows"] for p in provinces_seen.values())
        completed = sum(p["windows_completed"] for p in
                        provinces_seen.values())
        assert pending + completed > 0
        # SLO saw admissions as good events.
        slo = snap["monitors"]["slo"]["admission"]
        assert slo["events_tracked"] > 0
        assert slo["bad_tracked"] == 0


class TestDriftEpisode:
    def test_alert_transition_lifecycle_sequence(self, tmp_path,
                                                 small_split,
                                                 fitted_pipeline):
        """Forced drift → alert → health_transition → lifecycle_stage."""
        from repro.serve.lifecycle import (
            LifecycleController, PromotionGates, RetrainConfig,
        )
        from repro.serve.registry import ModelRegistry

        registry = ModelRegistry(tmp_path / "registry")
        registry.save(fitted_pipeline, metadata={"run": "seed"})
        champion = registry.load("champion")

        shifted = small_split.test.features.copy()
        shifted[:, 0] = shifted[:, 0] * 3.0 + 2.0
        shifted[:, 1] = shifted[:, 1] - 1.5

        trace_path = tmp_path / "episode.jsonl"
        tracer = Tracer(path=trace_path)
        guard = DriftGuard(StreamingPSI.from_dataset(small_split.train),
                           psi_threshold=0.25, min_rows=200)
        health = HealthMonitor(tracer=tracer, recovery_polls=3)
        controller = LifecycleController(
            registry,
            holdout=small_split.test,
            retrain=RetrainConfig(trainer="ERM",
                                  trainer_overrides={"n_epochs": 4},
                                  gbdt={"n_trees": 8, "max_bins": 16},
                                  tree={"max_leaves": 8,
                                        "min_child_samples": 10}),
            gates=PromotionGates(min_mean_auc=0.0, max_ks_regression=1.0),
            tracer=tracer,
            workdir=tmp_path / "work",
        )
        controller.attach_health_monitor(health)

        frontend = _start_live(champion, n_workers=2, drift_guard=guard,
                               health_monitor=health)
        try:
            request = None
            for start in range(0, len(shifted), 64):
                frontend.score_stream(shifted[start:start + 64])
                time.sleep(0.02)   # let the throttled live tick run
                request = controller.consume_recovery_request()
                if request is not None:
                    break
            assert request is not None, "drift episode must page lifecycle"
            assert request["from_state"] in ("healthy", "degraded")
            assert "feature_psi" in request["reasons"]
            report = controller.run_recovery(
                small_split.train, trigger=request
            )
            assert report["trigger"] == request
        finally:
            frontend.stop()
            tracer.close()

        # The whole episode is in ONE run log, schema-validated on read.
        run = RunLogReader.read(trace_path)
        alerts = run.events(ALERT_EVENT)
        transitions = run.events(HEALTH_TRANSITION_EVENT)
        stages = run.events(LIFECYCLE_STAGE_EVENT)
        assert alerts and transitions and stages

        # Ordering: first alert <= first transition < first lifecycle
        # stage (the controller only acts on a critical transition).
        names = [r.get("name") for r in run.records
                 if r.get("kind") == "event"]
        assert names.index(ALERT_EVENT) <= names.index(
            HEALTH_TRANSITION_EVENT)
        assert names.index(HEALTH_TRANSITION_EVENT) < names.index(
            LIFECYCLE_STAGE_EVENT)
        # The drift_detected stage carries the triggering health context.
        detected = [e for e in stages
                    if e["fields"].get("stage") == "drift_detected"]
        assert detected and "trigger" in detected[0]["fields"]


class TestDisabledPath:
    def test_no_slab_without_live_metrics(self, scoring_model,
                                          request_rows):
        frontend = ScoringFrontend(
            scoring_model, FrontendConfig(n_workers=2)
        ).start()
        try:
            frontend.score_stream(request_rows[:20])
            assert frontend._slab is None
            assert frontend._aggregator is None
            snap = frontend.snapshot()
        finally:
            frontend.stop()
        # The PR 7 snapshot schema is unchanged when the plane is off.
        assert "workers" not in snap
        assert "liveness" not in snap

    def test_live_snapshot_works_without_monitors(self, scoring_model,
                                                  request_rows):
        frontend = _start_live(scoring_model, n_workers=2)
        try:
            frontend.score_stream(request_rows[:20])
            snap = frontend.live_snapshot()
        finally:
            frontend.stop()
        assert snap["monitors"] == {}
        assert "health" not in snap
        assert snap["workers"]["counters"]["rows_scored"] == 20
