"""Round-trip tests for model persistence."""

import json
import pathlib

import numpy as np
import pytest

from repro.baselines.erm import ERMTrainer
from repro.baselines.finetune import FineTuneConfig, FineTuneTrainer
from repro.gbdt.binning import QuantileBinner
from repro.gbdt.boosting import GBDTClassifier, GBDTParams
from repro.persist import (
    binner_from_dict,
    binner_to_dict,
    gbdt_from_dict,
    gbdt_to_dict,
    pipeline_to_payload,
    scoring_model_from_payload,
)
from repro.persist.codec import decode_array, encode_array
from repro.pipeline.pipeline import LoanDefaultPipeline
from repro.serve.registry import ModelRegistry
from repro.train.base import BaseTrainConfig


@pytest.fixture(scope="module")
def fitted_gbdt():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((600, 6))
    logit = 1.2 * x[:, 0] - 0.8 * x[:, 1] + 0.3 * x[:, 2] * x[:, 0]
    y = (rng.random(600) < 1 / (1 + np.exp(-logit))).astype(float)
    model = GBDTClassifier(
        GBDTParams(n_trees=8, subsample=0.8, colsample=0.8, seed=3)
    ).fit(x, y)
    return model, x


class TestBinnerRoundTrip:
    def test_identical_transform(self, rng):
        x = rng.standard_normal((200, 4))
        binner = QuantileBinner(max_bins=16).fit(x)
        restored = binner_from_dict(binner_to_dict(binner))
        np.testing.assert_array_equal(
            binner.transform(x), restored.transform(x)
        )

    def test_json_serialisable(self, rng):
        binner = QuantileBinner().fit(rng.standard_normal((50, 2)))
        json.dumps(binner_to_dict(binner))  # must not raise

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            binner_to_dict(QuantileBinner())

    def test_version_checked(self, rng):
        binner = QuantileBinner().fit(rng.standard_normal((50, 2)))
        payload = binner_to_dict(binner)
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            binner_from_dict(payload)


class TestGBDTRoundTrip:
    def test_identical_probabilities(self, fitted_gbdt):
        model, x = fitted_gbdt
        restored = gbdt_from_dict(gbdt_to_dict(model))
        np.testing.assert_array_equal(
            model.predict_proba(x), restored.predict_proba(x)
        )

    def test_identical_leaf_matrix(self, fitted_gbdt):
        model, x = fitted_gbdt
        restored = gbdt_from_dict(gbdt_to_dict(model))
        np.testing.assert_array_equal(
            model.predict_leaves(x), restored.predict_leaves(x)
        )

    def test_json_round_trip_through_text(self, fitted_gbdt):
        model, x = fitted_gbdt
        text = json.dumps(gbdt_to_dict(model))
        restored = gbdt_from_dict(json.loads(text))
        np.testing.assert_array_equal(
            model.predict_proba(x), restored.predict_proba(x)
        )


class TestPipelineArtifact:
    def test_save_load_round_trip(self, small_split, tmp_path):
        pipeline = LoanDefaultPipeline(ERMTrainer(BaseTrainConfig(n_epochs=10)))
        pipeline.fit(small_split.train)
        path = tmp_path / "model.json"
        ModelRegistry.save_file(pipeline, path, metadata={"run": "test"})

        scorer = ModelRegistry.load_file(path)
        expected = pipeline.predict_proba(small_split.test)
        actual = scorer.predict_proba(small_split.test)
        np.testing.assert_array_equal(expected, actual)
        assert scorer.trainer_name == "ERM"
        assert scorer.metadata == {"run": "test"}

    def test_accepts_raw_feature_matrix(self, small_split, tmp_path):
        pipeline = LoanDefaultPipeline(ERMTrainer(BaseTrainConfig(n_epochs=5)))
        pipeline.fit(small_split.train)
        path = tmp_path / "model.json"
        ModelRegistry.save_file(pipeline, path)
        scorer = ModelRegistry.load_file(path)
        out = scorer.predict_proba(small_split.test.features[:7])
        assert out.shape == (7,)

    def test_unfitted_pipeline_rejected(self, tmp_path):
        pipeline = LoanDefaultPipeline(ERMTrainer(BaseTrainConfig(n_epochs=1)))
        with pytest.raises(RuntimeError):
            ModelRegistry.save_file(pipeline, tmp_path / "m.json")

    def test_finetuned_head_rejected(self, small_split, tmp_path):
        pipeline = LoanDefaultPipeline(
            FineTuneTrainer(FineTuneConfig(n_epochs=5))
        )
        pipeline.fit(small_split.train)
        with pytest.raises(ValueError, match="fine-tuned"):
            ModelRegistry.save_file(pipeline, tmp_path / "m.json")

    def test_bad_version_rejected(self, small_split, tmp_path):
        pipeline = LoanDefaultPipeline(ERMTrainer(BaseTrainConfig(n_epochs=2)))
        pipeline.fit(small_split.train)
        path = tmp_path / "model.json"
        ModelRegistry.save_file(pipeline, path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            ModelRegistry.load_file(path)


class TestPayloadCodecs:
    def test_payload_round_trip(self, fitted_pipeline, small_split):
        payload = pipeline_to_payload(fitted_pipeline, metadata={"k": "v"})
        model = scoring_model_from_payload(payload)
        assert model.metadata == {"k": "v"}
        np.testing.assert_array_equal(
            model.predict_proba(small_split.test.features),
            fitted_pipeline.predict_proba(small_split.test),
        )


class TestUntrustedArtifacts:
    """A model file may hold anything; a bad one raises ``ValueError``."""

    @staticmethod
    def _tampered(model, key, edit):
        """The model's payload with one decoded array replaced."""
        payload = json.loads(json.dumps(gbdt_to_dict(model)))
        array = decode_array(payload["arrays"][key]).copy()
        payload["arrays"][key] = encode_array(edit(array))
        return payload

    @staticmethod
    def _internal_node(model) -> int:
        return int(np.flatnonzero(model.forest_.leaf < 0)[0])

    def test_version_1_payload_asks_for_a_resave(self, fitted_pipeline):
        payload = pipeline_to_payload(fitted_pipeline)
        payload["version"] = 1
        with pytest.raises(ValueError, match="re-save"):
            scoring_model_from_payload(payload)

    def test_unknown_dtype(self, fitted_gbdt):
        model, _ = fitted_gbdt
        payload = gbdt_to_dict(model)
        payload["arrays"]["forest/value"]["dtype"] = "<c16"
        with pytest.raises(ValueError, match="dtype"):
            gbdt_from_dict(payload)

    def test_mismatched_lengths(self, fitted_gbdt):
        model, _ = fitted_gbdt
        payload = self._tampered(model, "forest/leaf", lambda a: a[:-1])
        with pytest.raises(ValueError, match="leaf ids"):
            gbdt_from_dict(payload)

    def test_out_of_range_child_id(self, fitted_gbdt):
        model, _ = fitted_gbdt
        node = self._internal_node(model)

        def edit(nodes):
            nodes[node] = (nodes[node] & 0xFFFFFFFF) | (10**6 << 32)
            return nodes

        with pytest.raises(ValueError, match="child id"):
            gbdt_from_dict(self._tampered(model, "forest/nodes", edit))

    def test_out_of_range_leaf_id(self, fitted_gbdt):
        model, _ = fitted_gbdt
        leaf_node = int(np.flatnonzero(model.forest_.leaf >= 0)[0])

        def edit(leaf):
            leaf[leaf_node] = 99
            return leaf

        with pytest.raises(ValueError, match="leaf id"):
            gbdt_from_dict(self._tampered(model, "forest/leaf", edit))

    def test_out_of_range_column_id(self, fitted_gbdt):
        model, _ = fitted_gbdt
        node = self._internal_node(model)
        n_columns = len(model.binner.bin_edges_)

        def edit(nodes):
            nodes[node] = (nodes[node] & ~(0xFFFFFF << 8)) | (n_columns << 8)
            return nodes

        with pytest.raises(ValueError, match="column id"):
            gbdt_from_dict(self._tampered(model, "forest/nodes", edit))

    def test_leaf_values_must_match_the_params_dtype(self, fitted_gbdt):
        model, _ = fitted_gbdt
        payload = self._tampered(model, "forest/value",
                                 lambda v: v.astype(np.float32))
        with pytest.raises(ValueError, match="parameters say float64"):
            gbdt_from_dict(payload)


class TestStoredArtifact:
    """``tests/data/artifact_v2.json`` was saved (a float64 LightMIRM model,
    8 trees, colsample 0.7) before serving scored through the compiled
    scorer, with the scores of 16 rows; the format has not changed since,
    so the file must load and score bit for bit, compiled and layered."""

    DATA = pathlib.Path(__file__).parent / "data"

    def test_loads_and_scores_bit_identically(self):
        stored = np.load(self.DATA / "artifact_v2_scores.npz")
        rows, scores = stored["rows"], stored["scores"]
        model = ModelRegistry.load_file(self.DATA / "artifact_v2.json")
        assert model.trainer_name == "LightMIRM"
        np.testing.assert_array_equal(model.predict_proba(rows), scores)
        np.testing.assert_array_equal(
            model.model.predict_proba(model.theta,
                                      model.encoder.transform(rows)),
            scores)
