"""Failure-injection tests: malformed inputs must fail loudly and early."""

import json

import numpy as np
import pytest

from repro.baselines.erm import ERMTrainer
from repro.core.config import LightMIRMConfig, MetaIRMConfig
from repro.core.lightmirm import LightMIRMTrainer
from repro.core.meta_irm import MetaIRMTrainer
from repro.data.dataset import EnvironmentData
from repro.gbdt.boosting import GBDTClassifier, GBDTParams
from repro.pipeline.extractor import GBDTFeatureExtractor
from repro.train.base import BaseTrainConfig


class TestNaNAndInfInputs:
    def test_gbdt_rejects_nan_features(self, rng):
        x = rng.standard_normal((50, 3))
        x[3, 1] = np.nan
        y = rng.integers(0, 2, 50).astype(float)
        with pytest.raises(ValueError, match="finite"):
            GBDTClassifier(GBDTParams(n_trees=2)).fit(x, y)

    def test_gbdt_rejects_inf_at_predict(self, rng):
        x = rng.standard_normal((100, 3))
        y = rng.integers(0, 2, 100).astype(float)
        y[:2] = [0, 1]
        model = GBDTClassifier(GBDTParams(n_trees=2)).fit(x, y)
        bad = x.copy()
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            model.predict_proba(bad)

    def test_metrics_reject_nan_scores(self, rng):
        from repro.metrics.auc import auc_score

        y = np.array([0.0, 1.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            auc_score(y, np.array([0.1, np.nan, 0.3, 0.4]))


class TestDegenerateEnvironments:
    def test_single_class_environment_trains_without_crash(self, rng):
        """A province with zero defaults must not break training (it is
        skipped at evaluation time instead)."""
        envs = [
            EnvironmentData("ok", rng.standard_normal((80, 4)),
                            rng.integers(0, 2, 80).astype(float)),
            EnvironmentData("no_defaults", rng.standard_normal((40, 4)),
                            np.zeros(40)),
        ]
        envs[0].labels.setflags(write=True)
        envs[0].labels[:2] = [0, 1]
        for trainer in (
            ERMTrainer(BaseTrainConfig(n_epochs=5)),
            MetaIRMTrainer(MetaIRMConfig(n_epochs=5)),
            LightMIRMTrainer(LightMIRMConfig(n_epochs=5)),
        ):
            result = trainer.fit(envs)
            assert np.isfinite(result.theta).all()

    def test_one_row_environment(self, rng):
        envs = [
            EnvironmentData("big", rng.standard_normal((80, 4)),
                            rng.integers(0, 2, 80).astype(float)),
            EnvironmentData("one", rng.standard_normal((1, 4)),
                            np.ones(1)),
        ]
        result = LightMIRMTrainer(LightMIRMConfig(n_epochs=3)).fit(envs)
        assert np.isfinite(result.theta).all()


class TestCorruptedArtifacts:
    def test_truncated_json_raises(self, small_split, tmp_path):
        from repro.pipeline.pipeline import LoanDefaultPipeline
        from repro.serve.registry import ModelRegistry

        pipeline = LoanDefaultPipeline(ERMTrainer(BaseTrainConfig(n_epochs=2)))
        pipeline.fit(small_split.train)
        path = tmp_path / "model.json"
        ModelRegistry.save_file(pipeline, path)
        path.write_text(path.read_text()[:100])
        with pytest.raises(json.JSONDecodeError):
            ModelRegistry.load_file(path)

    def test_theta_dimension_mismatch_detected(self, small_split, tmp_path):
        from repro.pipeline.pipeline import LoanDefaultPipeline
        from repro.serve.registry import ModelRegistry

        pipeline = LoanDefaultPipeline(ERMTrainer(BaseTrainConfig(n_epochs=2)))
        pipeline.fit(small_split.train)
        path = tmp_path / "model.json"
        ModelRegistry.save_file(pipeline, path)
        payload = json.loads(path.read_text())
        payload["theta"] = payload["theta"][:-3]  # corrupt the head
        path.write_text(json.dumps(payload))
        # Loading compiles the head into the forest's leaves, so the
        # mismatch is refused before any row is scored.
        with pytest.raises(ValueError, match="leaves"):
            ModelRegistry.load_file(path)


class TestExtractorMisuse:
    def test_transform_wrong_width(self, fitted_extractor, rng):
        from repro.data.generator import GeneratorConfig, LoanDataGenerator

        other = LoanDataGenerator(
            GeneratorConfig(n_samples=300, total_features=60, seed=1)
        ).generate()
        with pytest.raises(ValueError):
            fitted_extractor.transform(other)

    def test_head_theta_wrong_dim(self, fitted_extractor, train_envs):
        from repro.models.logistic import LogisticModel

        model = LogisticModel(fitted_extractor.n_output_features)
        with pytest.raises(ValueError):
            model.predict_proba(
                np.zeros(3), train_envs[0].features
            )


def _fake_report(ks: float, auc: float = 0.9):
    """A minimal FairnessReport with a chosen mean KS/AUC."""
    from repro.metrics.fairness import EnvironmentScores, FairnessReport

    return FairnessReport(per_environment={
        "P": EnvironmentScores("P", ks, auc, 100, 30),
    })


class TestServingLifecycleFaults:
    """Every failure inside the drift-recovery loop must abort cleanly:
    the champion slot is untouched, the outcome names the failing stage,
    and the report carries the error context."""

    @pytest.fixture()
    def seeded_registry(self, tmp_path, fitted_pipeline):
        from repro.serve.registry import ModelRegistry

        registry = ModelRegistry(tmp_path / "registry")
        registry.save(fitted_pipeline, metadata={"run": "seed"})
        return registry

    @pytest.fixture()
    def tiny_retrain(self):
        from repro.serve.lifecycle import RetrainConfig

        return RetrainConfig(
            trainer="ERM",
            trainer_overrides={"n_epochs": 2},
            gbdt={"n_trees": 4, "max_bins": 16},
            tree={"max_leaves": 4, "min_child_samples": 5},
        )

    def test_challenger_eval_failure_aborts_promotion(
            self, tmp_path, seeded_registry, tiny_retrain, small_split):
        from repro.serve.lifecycle import LifecycleController

        def broken_eval(model, dataset):
            raise RuntimeError("eval exploded")

        controller = LifecycleController(
            seeded_registry, holdout=small_split.test, retrain=tiny_retrain,
            evaluate_fn=broken_eval, workdir=tmp_path / "work",
        )
        report = controller.run_recovery(small_split.train)

        assert report["outcome"] == "eval_failed"
        assert "eval exploded" in report["error"]
        assert report["stages"][-1] == "aborted"
        # Champion untouched; the failed challenger is parked, not serving.
        assert seeded_registry.slots()["champion"] == "v0001"

    def test_retrain_failure_leaves_registry_untouched(
            self, tmp_path, seeded_registry, small_split):
        from repro.serve.lifecycle import LifecycleController, RetrainConfig

        controller = LifecycleController(
            seeded_registry, holdout=small_split.test,
            retrain=RetrainConfig(trainer="definitely-not-a-trainer"),
            workdir=tmp_path / "work",
        )
        report = controller.run_recovery(small_split.train)

        assert report["outcome"] == "retrain_failed"
        assert report["stages"] == ["drift_detected", "retraining",
                                    "aborted"]
        # No challenger was ever registered.
        assert [v.version for v in seeded_registry.versions()] == ["v0001"]
        assert seeded_registry.slots()["champion"] == "v0001"

    def test_gates_failure_parks_challenger_without_promoting(
            self, tmp_path, seeded_registry, tiny_retrain, small_split):
        from repro.serve.lifecycle import LifecycleController, PromotionGates

        controller = LifecycleController(
            seeded_registry, holdout=small_split.test, retrain=tiny_retrain,
            gates=PromotionGates(min_mean_ks=2.0),  # unsatisfiable
            workdir=tmp_path / "work",
        )
        report = controller.run_recovery(small_split.train)

        assert report["outcome"] == "gates_failed"
        assert not report["gates"]["passed"]
        assert "below floor" in report["gates"]["reason"]
        slots = seeded_registry.slots()
        assert slots["champion"] == "v0001"
        assert slots["challenger"] == report["challenger_version"] == "v0002"

    def test_post_promote_regression_rolls_back(
            self, tmp_path, seeded_registry, tiny_retrain, small_split):
        from repro.serve.lifecycle import LifecycleController

        calls = {"n": 0}

        def flaky_eval(model, dataset):
            # Challenger looks great, champion baseline is fine, but the
            # post-promotion re-check collapses: the loop must roll back.
            calls["n"] += 1
            if calls["n"] == 1:
                return _fake_report(ks=0.8)
            if calls["n"] == 2:
                return _fake_report(ks=0.5)
            return _fake_report(ks=0.1)

        controller = LifecycleController(
            seeded_registry, holdout=small_split.test, retrain=tiny_retrain,
            evaluate_fn=flaky_eval, workdir=tmp_path / "work",
        )
        report = controller.run_recovery(small_split.train)

        assert report["outcome"] == "rolled_back"
        assert report["stages"][-1] == "rolled_back"
        assert report["restored_version"] == "v0001"
        assert seeded_registry.slots()["champion"] == "v0001"


class TestCLIFailures:
    def test_missing_data_file(self, tmp_path):
        from repro.cli import main

        with pytest.raises(FileNotFoundError):
            main(["train", "--method", "ERM",
                  "--data", str(tmp_path / "absent.npz")])

    def test_unknown_method(self, tmp_path):
        from repro.cli import main
        from repro.data.generator import GeneratorConfig, LoanDataGenerator

        path = tmp_path / "d.npz"
        LoanDataGenerator(GeneratorConfig.small(seed=0)).generate().save(path)
        with pytest.raises(KeyError):
            main(["train", "--method", "XGBoost", "--data", str(path)])
