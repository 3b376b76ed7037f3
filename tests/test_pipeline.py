"""Integration tests for the GBDT+LR pipeline and the feature extractor."""

import numpy as np
import pytest

from repro.baselines.erm import ERMTrainer
from repro.baselines.finetune import FineTuneConfig, FineTuneTrainer
from repro.core.config import LightMIRMConfig
from repro.core.lightmirm import LightMIRMTrainer
from repro.gbdt.boosting import GBDTParams
from repro.gbdt.leaf_encoder import LeafDesign
from repro.pipeline.extractor import GBDTFeatureExtractor
from repro.pipeline.pipeline import LoanDefaultPipeline
from repro.train.base import BaseTrainConfig


class TestExtractor:
    def test_fit_and_transform(self, small_split, fitted_extractor):
        encoded = fitted_extractor.transform(small_split.test)
        assert isinstance(encoded, LeafDesign)
        assert encoded.shape == (
            small_split.test.n_samples,
            fitted_extractor.n_output_features,
        )

    def test_environments_cover_all_rows(self, small_split, fitted_extractor):
        envs = fitted_extractor.encode_environments(small_split.train)
        assert sum(e.n_samples for e in envs) == small_split.train.n_samples
        assert [e.name for e in envs] == sorted(e.name for e in envs)

    def test_unfitted_raises(self, small_split):
        extractor = GBDTFeatureExtractor()
        with pytest.raises(RuntimeError):
            extractor.transform(small_split.test)


class TestPipelineFit:
    def test_fit_evaluate_erm(self, small_split, fitted_extractor):
        pipeline = LoanDefaultPipeline(
            ERMTrainer(BaseTrainConfig(n_epochs=30)),
            extractor=fitted_extractor,
        )
        pipeline.fit(small_split.train)
        report = pipeline.evaluate(small_split.test)
        assert 0 < report.mean_ks <= 1
        assert report.worst_ks <= report.mean_ks

    def test_predict_proba_shape_and_range(self, small_split,
                                           fitted_extractor):
        pipeline = LoanDefaultPipeline(
            ERMTrainer(BaseTrainConfig(n_epochs=10)),
            extractor=fitted_extractor,
        )
        pipeline.fit(small_split.train)
        probs = pipeline.predict_proba(small_split.test)
        assert probs.shape == (small_split.test.n_samples,)
        assert np.all((probs > 0) & (probs < 1))

    def test_lightmirm_pipeline_end_to_end(self, small_split,
                                           fitted_extractor):
        pipeline = LoanDefaultPipeline(
            LightMIRMTrainer(LightMIRMConfig(n_epochs=20)),
            extractor=fitted_extractor,
        )
        pipeline.fit(small_split.train)
        report = pipeline.evaluate(small_split.test)
        assert report.mean_ks > 0.2  # clearly better than chance

    def test_finetune_pipeline_uses_env_thetas(self, small_split,
                                               fitted_extractor):
        pipeline = LoanDefaultPipeline(
            FineTuneTrainer(FineTuneConfig(n_epochs=20)),
            extractor=fitted_extractor,
        )
        pipeline.fit(small_split.train)
        probs = pipeline.predict_proba(small_split.test)
        assert probs.shape == (small_split.test.n_samples,)

    def test_own_gbdt_params(self, small_split):
        pipeline = LoanDefaultPipeline(
            ERMTrainer(BaseTrainConfig(n_epochs=5)),
            gbdt_params=GBDTParams(n_trees=5, learning_rate=0.2),
        )
        pipeline.fit(small_split.train)
        assert pipeline.gbdt_.n_trees_fitted <= 5

    def test_params_and_extractor_conflict(self, fitted_extractor):
        with pytest.raises(ValueError):
            LoanDefaultPipeline(
                ERMTrainer(BaseTrainConfig(n_epochs=1)),
                gbdt_params=GBDTParams(n_trees=2),
                extractor=fitted_extractor,
            )

    def test_unfitted_pipeline_raises(self, small_split):
        pipeline = LoanDefaultPipeline(ERMTrainer(BaseTrainConfig(n_epochs=1)))
        with pytest.raises(RuntimeError):
            pipeline.evaluate(small_split.test)

    def test_refit_without_reset_raises(self, small_split, fitted_extractor):
        pipeline = LoanDefaultPipeline(
            ERMTrainer(BaseTrainConfig(n_epochs=2)),
            extractor=fitted_extractor,
        )
        pipeline.fit(small_split.train)
        with pytest.raises(RuntimeError, match="already fitted"):
            pipeline.fit(small_split.train)

    def test_reset_allows_deliberate_refit(self, small_split,
                                           fitted_extractor):
        pipeline = LoanDefaultPipeline(
            ERMTrainer(BaseTrainConfig(n_epochs=2)),
            extractor=fitted_extractor,
        )
        pipeline.fit(small_split.train)
        first = pipeline.predict_proba(small_split.test)
        assert pipeline.reset() is pipeline
        assert not pipeline.is_fitted
        assert pipeline.extractor.is_fitted   # extraction stage survives
        pipeline.fit(small_split.train)
        np.testing.assert_array_equal(
            pipeline.predict_proba(small_split.test), first
        )

    def test_timer_records_transform_step(self, small_split,
                                          fitted_extractor):
        from repro.timing import StepTimer

        timer = StepTimer(enabled=True)
        pipeline = LoanDefaultPipeline(
            ERMTrainer(BaseTrainConfig(n_epochs=2)),
            extractor=fitted_extractor,
        )
        pipeline.fit(small_split.train, timer=timer)
        assert "transforming_format" in timer.stats
