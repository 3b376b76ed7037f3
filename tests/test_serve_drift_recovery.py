"""End-to-end drift recovery: trip → retrain → gated promote → serve.

The ROADMAP item 2 deliverable: a shifted-province stream trips the PSI
drift guard on the live front-end, the lifecycle controller retrains on
the drifted regime, the challenger clears the held-out per-province
KS/AUC gates, promotion goes through the registry, the front-end swaps to
the new generation — and the old champion stays one rollback away.  The
old champion's generation outlives the swap only while requests admitted
before it are in flight.
"""

import time

import numpy as np
import pytest

from repro.data.dataset import LoanDataset
from repro.monitor.streaming import StreamingPSI
from repro.obs.runlog import LIFECYCLE_STAGE_EVENT
from repro.obs.tracer import Tracer
from repro.serve.degradation import DriftGuard
from repro.serve.frontend import (
    _POLL_TIMEOUT_S,
    FrontendConfig,
    ScoringFrontend,
)
from repro.serve.lifecycle import (
    LifecycleController,
    PromotionGates,
    RetrainConfig,
    evaluate_model,
)
from repro.serve.registry import ModelRegistry
from tests.test_serve_retirement import assert_holds_only, segment


def _shifted(dataset: LoanDataset) -> LoanDataset:
    """A covariate-shifted regime: rescaled/offset raw features."""
    features = dataset.features.copy()
    features[:, 0] = features[:, 0] * 3.0 + 2.0
    features[:, 1] = features[:, 1] - 1.5
    return LoanDataset(features, dataset.labels, dataset.provinces,
                       dataset.years, dataset.halves, dataset.schema)


@pytest.fixture()
def recovery_retrain() -> RetrainConfig:
    """A small-but-real retrain recipe (seconds, not minutes)."""
    return RetrainConfig(
        trainer="ERM",
        trainer_overrides={"n_epochs": 8},
        gbdt={"n_trees": 16, "max_bins": 32},
        tree={"max_leaves": 8, "min_child_samples": 10},
    )


def test_drift_recovery_end_to_end(tmp_path, small_split, fitted_pipeline,
                                   recovery_retrain):
    registry = ModelRegistry(tmp_path / "registry")
    seed_version = registry.save(fitted_pipeline, metadata={"run": "seed"})
    champion = registry.load("champion")
    clean_ks = evaluate_model(champion, small_split.test).mean_ks

    # Interleave retrain/holdout rows so both halves sample the *drifted*
    # regime evenly (a temporal first/second split would confound the
    # injected shift with the generator's own temporal drift).
    shifted = _shifted(small_split.test)
    retrain_dataset = shifted.select(np.arange(0, shifted.n_samples, 2))
    holdout = shifted.select(np.arange(1, shifted.n_samples, 2))

    guard = DriftGuard(StreamingPSI.from_dataset(small_split.train),
                       psi_threshold=0.25, min_rows=200)
    tracer = Tracer()
    frontend = ScoringFrontend(
        champion, FrontendConfig(n_workers=2, max_batch_size=32),
        drift_guard=guard, version=seed_version,
    )
    frontend.start()
    try:
        # --- feed the shifted stream until the PSI guard trips ----------
        for start in range(0, shifted.n_samples, 64):
            chunk = shifted.features[start:start + 64]
            results = frontend.score_stream(chunk)
            assert all(r.ok for r in results)
            if guard.tripped:
                break
        assert guard.tripped, "shifted stream must trip the drift guard"

        # --- requests still in flight on the old champion at promotion --
        frontend.pause_workers()
        time.sleep(10 * _POLL_TIMEOUT_S)  # let the pause land
        old_rows = holdout.features[64:96]
        in_flight = [frontend.submit(row) for row in old_rows]
        old_segment = segment(frontend, 0)

        # --- close the loop: retrain → gated eval → promote -------------
        controller = LifecycleController(
            registry,
            holdout=holdout,
            retrain=recovery_retrain,
            gates=PromotionGates(min_mean_auc=0.5, max_ks_regression=0.0),
            tracer=tracer,
            frontend=frontend,
            drift_guard=guard,
            workdir=tmp_path / "work",
        )
        report = controller.run_recovery(retrain_dataset)

        assert report["outcome"] == "promoted"
        assert report["stages"] == [
            "drift_detected", "retraining", "evaluating", "promoting",
            "promoted",
        ]
        # The challenger restores KS on the drifted regime: no worse than
        # the degraded champion, and within tolerance of the champion's
        # clean-data ranking power.
        assert (report["challenger_eval"]["mKS"]
                >= report["champion_eval"]["mKS"])
        assert report["challenger_eval"]["mKS"] >= clean_ks - 0.15
        # Recovery resets the guard so monitoring restarts fresh.
        assert not guard.tripped

        # --- the old champion is retired once its requests drain ---------
        assert frontend._publisher.generations == [0, report["generation"]]
        frontend.resume_workers()
        drained = [ticket.result(timeout=60) for ticket in in_flight]
        assert {r.generation for r in drained} == {0}
        np.testing.assert_array_equal(
            np.array([r.score for r in drained]),
            champion.predict_proba(old_rows),
        )
        assert_holds_only(frontend, [old_segment,
                                     segment(frontend, report["generation"])])

        # --- the front-end now serves the promoted generation -----------
        promoted = registry.load("champion")
        rows = holdout.features[:64]
        served = frontend.score_stream(rows)
        assert {r.generation for r in served} == {report["generation"]}
        np.testing.assert_array_equal(
            np.array([r.score for r in served]),
            promoted.predict_proba(rows),
        )
    finally:
        frontend.stop()

    # --- the loop is observable and reversible --------------------------
    stages = [r["fields"]["stage"] for r in tracer.records
              if r.get("kind") == "event"
              and r.get("name") == LIFECYCLE_STAGE_EVENT]
    assert stages == report["stages"]

    assert registry.slots()["champion"] == report["promoted_version"]
    assert registry.rollback() == seed_version
    assert registry.slots()["champion"] == seed_version
