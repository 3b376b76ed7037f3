"""One holdout fit and one environment encoder behind both GBDT extractors.

:class:`GBDTFeatureExtractor` (the pipeline) and
:func:`~repro.gbdt.packing.fit_extractor_encode` (the tuner's workers) bin
the raw rows once, gather the fit and holdout parts as uint8 rows
(:func:`~repro.gbdt.boosting.fit_holdout`) and encode each environment
from one binned matrix (:func:`~repro.gbdt.leaf_encoder.leaf_encode_environments`).
These tests pin both, bit for bit, to the formulation that copied float
rows instead — ``validation_split`` plus :meth:`GBDTClassifier.fit` on
the float parts, the whole design plus ``design[rows]`` — rebuilt inline
below, and bound the memory the new formulation peaks at.
"""

import tracemalloc

import numpy as np
import pytest

from repro.data.dataset import EnvironmentData
from repro.data.generator import GeneratorConfig, LoanDataGenerator
from repro.data.splits import temporal_split, validation_split
from repro.gbdt.binning import QuantileBinner
from repro.gbdt.boosting import GBDTClassifier, GBDTParams, fit_holdout
from repro.gbdt.leaf_encoder import LeafIndexEncoder
from repro.gbdt.packing import fit_extractor_encode
from repro.gbdt.tree import TreeParams
from repro.pipeline.extractor import GBDTFeatureExtractor

#: The tuner's holdout tag (``repro.gbdt.packing._ENCODE_SPLIT_TAG``).
ENCODE_SPLIT_TAG = 0x78656E63


# ------------------------------------------------- the float-copy reference

def reference_extractor(params, train, fraction=0.2):
    """The extractor's fit on float copies of the fit and holdout rows."""
    model = GBDTClassifier(params)
    if params.early_stopping_rounds and 0.0 < fraction < 1.0 \
            and train.n_samples >= 50:
        split = validation_split(train, validation_fraction=fraction)
        model.fit(split.train.features, split.train.labels,
                  valid_features=split.test.features,
                  valid_labels=split.test.labels)
    else:
        model.fit(train.features, train.labels)
    return model


def reference_environments(model, dataset):
    """The whole design of ``dataset``, then one row copy per province."""
    encoder = LeafIndexEncoder(model)
    design = encoder.transform_binned(model.bin_features(dataset.features))
    return [
        EnvironmentData(name,
                        design[np.flatnonzero(dataset.provinces == name)],
                        dataset.labels[dataset.provinces == name])
        for name in dataset.province_names()
    ]


def reference_fit_encode(params, environments, holdout_fraction=0.2,
                         holdout_seed=0):
    """The tuner's fit on a float ``vstack`` of every environment, then a
    per-environment bin and encode."""
    features = np.vstack([np.asarray(env.features) for env in environments])
    labels = np.concatenate([env.labels for env in environments])
    model = GBDTClassifier(params)
    n = features.shape[0]
    if params.early_stopping_rounds and 0.0 < holdout_fraction < 1.0 \
            and n >= 50:
        rng = np.random.default_rng(
            np.random.SeedSequence([holdout_seed, ENCODE_SPLIT_TAG]))
        order = rng.permutation(n)
        n_valid = max(1, int(round(holdout_fraction * n)))
        valid_rows, fit_rows = order[:n_valid], order[n_valid:]
        model.fit(features[fit_rows], labels[fit_rows],
                  valid_features=features[valid_rows],
                  valid_labels=labels[valid_rows])
    else:
        model.fit(features, labels)
    encoder = LeafIndexEncoder(model)
    return model, [
        EnvironmentData(env.name,
                        encoder.transform_binned(model.bin_features(env.features)),
                        env.labels)
        for env in environments
    ]


# ------------------------------------------------------------- assertions

def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def assert_same_model(got, want):
    assert len(got.binner.bin_edges_) == len(want.binner.bin_edges_)
    for got_edges, want_edges in zip(got.binner.bin_edges_,
                                     want.binner.bin_edges_):
        assert_same_array(got_edges, want_edges)
    for name in ("nodes", "leaf", "value", "roots"):
        assert_same_array(getattr(got.forest_, name),
                          getattr(want.forest_, name))
    assert got.forest_.depth == want.forest_.depth
    assert got.forest_.n_columns == want.forest_.n_columns
    assert got.base_score_ == want.base_score_
    assert got.train_losses_ == want.train_losses_
    assert got.valid_losses_ == want.valid_losses_


def assert_same_environments(got, want):
    assert [env.name for env in got] == [env.name for env in want]
    for got_env, want_env in zip(got, want):
        assert got_env.features.n_columns == want_env.features.n_columns
        assert_same_array(got_env.features.columns, want_env.features.columns)
        assert_same_array(got_env.labels, want_env.labels)


# ------------------------------------------------------------------ inputs

PARAMS = {
    "early_stopping": GBDTParams(n_trees=8, colsample=0.7,
                                 early_stopping_rounds=3),
    "no_early_stopping": GBDTParams(n_trees=6, colsample=0.7),
    "float32": GBDTParams(n_trees=8, colsample=0.7, early_stopping_rounds=3,
                          dtype="float32"),
}


def one_row_province(dataset):
    """``dataset`` with its first province cut to one row."""
    first = dataset.province_names()[0]
    keep = dataset.provinces != first
    keep[np.flatnonzero(~keep)[0]] = True
    return dataset.select(keep)


def raw_environments(dtypes, sizes, n_features=9, seed=11):
    rng = np.random.default_rng(seed)
    environments = []
    for i, (dtype, n) in enumerate(zip(dtypes, sizes)):
        features = rng.normal(size=(n, n_features)).astype(dtype)
        features[:, 2] = np.round(features[:, 2])  # a few distinct values
        labels = (features[:, 0] + rng.normal(size=n) > 0).astype(np.int64)
        environments.append(EnvironmentData(f"env{i}", features, labels))
    # Both classes in the pooled rows (and in any fit part of them).
    environments[-1].labels[:2] = [0, 1]
    return environments


# ------------------------------------------------------------------- tests

class TestExtractorMatchesFloatCopies:
    @pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
    @pytest.mark.parametrize("rows", ["all", "one_row_province", "under_50"])
    def test_model_and_environments(self, small_split, params, rows):
        train = small_split.train
        if rows == "one_row_province":
            train = one_row_province(train)
        elif rows == "under_50":
            train = train.select(np.arange(40))
        extractor = GBDTFeatureExtractor(params).fit(train)
        want = reference_extractor(params, train)
        assert_same_model(extractor.model_, want)
        for dataset in (train, small_split.test):
            assert_same_environments(extractor.encode_environments(dataset),
                                     reference_environments(want, dataset))

    def test_validation_fraction_outside_the_open_interval(self, small_split):
        params = PARAMS["early_stopping"]
        for fraction in (0.0, 1.0):
            extractor = GBDTFeatureExtractor(
                params, validation_fraction=fraction).fit(small_split.train)
            assert_same_model(
                extractor.model_,
                reference_extractor(params, small_split.train, fraction))


class TestPipelineBinsTrainRowsOnce:
    """A pipeline fitting its own extractor encodes from the fit's bins."""

    def test_one_binning_pass_and_the_same_theta(self, small_split,
                                                 monkeypatch):
        from repro.core.config import LightMIRMConfig
        from repro.core.lightmirm import LightMIRMTrainer
        from repro.pipeline.pipeline import LoanDefaultPipeline

        def trainer():
            return LightMIRMTrainer(LightMIRMConfig(n_epochs=3))

        params = PARAMS["early_stopping"]
        train = small_split.train
        prefit = GBDTFeatureExtractor(params).fit(train)
        want = LoanDefaultPipeline(trainer(), extractor=prefit).fit(train)

        transformed = []
        original = QuantileBinner.transform

        def spy(self, features, rows=None):
            transformed.append(features.shape[0] if rows is None
                               else len(rows))
            return original(self, features, rows)

        monkeypatch.setattr(QuantileBinner, "transform", spy)
        got = LoanDefaultPipeline(trainer(), gbdt_params=params).fit(train)
        assert transformed == [train.n_samples]
        assert_same_model(got.gbdt_, want.gbdt_)
        assert_same_array(got.result_.theta, want.result_.theta)

    def test_fit_and_bin_returns_the_bins_of_the_train_rows(self,
                                                            small_split):
        train = small_split.train
        extractor = GBDTFeatureExtractor(PARAMS["early_stopping"])
        binned = extractor.fit_and_bin(train)
        assert_same_array(binned,
                          extractor.model_.bin_features(train.features))
        assert_same_environments(
            extractor.encode_environments(train, binned),
            extractor.encode_environments(train))


class TestTunerMatchesFloatCopies:
    @pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
    @pytest.mark.parametrize("dtypes", [
        (np.float64, np.float64, np.float64),
        (np.float32, np.float32, np.float32),
        (np.float32, np.float64, np.float32),
        (np.float32, np.int64, np.float64),
    ], ids=["float64", "float32", "mixed", "mixed_with_ints"])
    @pytest.mark.parametrize("holdout_seed", [0, 3])
    def test_model_and_environments(self, params, dtypes, holdout_seed):
        # The first environment holds one row.
        environments = raw_environments(dtypes, (1, 60, 60))
        model, encoded, _ = fit_extractor_encode(
            params, environments, holdout_seed=holdout_seed)
        want_model, want = reference_fit_encode(
            params, environments, holdout_seed=holdout_seed)
        assert_same_model(model, want_model)
        assert_same_environments(encoded, want)

    def test_under_50_pooled_rows_fit_without_holdout(self):
        environments = raw_environments((np.float64, np.float32), (20, 20))
        params = PARAMS["early_stopping"]
        model, encoded, _ = fit_extractor_encode(params, environments)
        want_model, want = reference_fit_encode(params, environments)
        assert not model.valid_losses_
        assert_same_model(model, want_model)
        assert_same_environments(encoded, want)


class TestEmptyFitPart:
    """A holdout that takes every row fails with one error on both paths."""

    def test_tuner(self):
        environments = raw_environments((np.float64,), (50,))
        with pytest.raises(ValueError,
                           match=r"holdout fraction 0\.99 of 50 rows"):
            fit_extractor_encode(PARAMS["early_stopping"], environments,
                                 holdout_fraction=0.99)

    def test_extractor(self, small_split):
        train = small_split.train.select(np.arange(60))
        extractor = GBDTFeatureExtractor(validation_fraction=0.995)
        with pytest.raises(ValueError,
                           match=r"holdout fraction 0\.995 of 60 rows"):
            extractor.fit(train)
        assert not extractor.is_fitted


class TestInputErrors:
    @pytest.mark.parametrize("blocks, labels, match", [
        ([], np.zeros(0), "2-D"),
        ([np.zeros((3, 2)), np.zeros((3, 3))], np.zeros(6), "2-D"),
        ([np.zeros(3)], np.zeros(3), "2-D"),
        ([np.zeros((0, 2))], np.zeros(0), "empty"),
        ([np.zeros((3, 2)), np.zeros((3, 2))], np.zeros(5), "disagree"),
    ], ids=["no_blocks", "widths_differ", "one_dimensional", "no_rows",
            "labels_short"])
    def test_rejected_blocks(self, blocks, labels, match):
        with pytest.raises(ValueError, match=match):
            fit_holdout(PARAMS["early_stopping"], blocks, labels, 0.2, 0)

    @pytest.mark.parametrize("position", [0, 20], ids=["holdout", "fit"])
    def test_non_finite_fit_or_holdout_row(self, position):
        # The default 0.2 holdout of 100 rows is the first 20 of the order.
        order = np.random.default_rng(
            np.random.SeedSequence([0, ENCODE_SPLIT_TAG])).permutation(100)
        environments = raw_environments((np.float64,), (100,))
        environments[0].features[order[position], 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit_extractor_encode(PARAMS["early_stopping"], environments)


class TestFitColumns:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_equals_fit(self, dtype):
        rng = np.random.default_rng(2)
        x = (rng.normal(size=(300, 5)) * 4).astype(dtype)
        x[:, 1] = 7  # constant
        want = QuantileBinner(max_bins=16).fit(x).bin_edges_
        got = QuantileBinner(max_bins=16).fit_columns(x.T).bin_edges_
        assert len(got) == len(want)
        for got_edges, want_edges in zip(got, want):
            assert_same_array(got_edges, want_edges)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        column = np.arange(10.0)
        column[4] = value
        binner = QuantileBinner()
        with pytest.raises(ValueError, match="finite"):
            binner.fit_columns([np.arange(10.0), column])
        assert not binner.is_fitted

    def test_rejects_an_empty_column(self):
        with pytest.raises(ValueError, match="zero rows"):
            QuantileBinner().fit_columns([np.empty(0)])


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def generated_train(n_samples, n_features):
    config = GeneratorConfig(n_samples=n_samples, total_features=n_features,
                             n_spurious=8, seed=4)
    return temporal_split(LoanDataGenerator(config).generate()).train


class TestMemory:
    """Traced peaks (inputs ~8 MB and ~4 MB).  Copying the float fit and
    holdout rows alone costs the float bytes of the train features, and
    copying every province's rows out of the whole design costs the
    designs' bytes again: about 1.7x and 2.1x on the float-copy
    formulation."""

    def test_fit_peaks_below_the_float_features(self):
        # Shallow trees keep the per-node histograms small next to the
        # rows.
        train = generated_train(12_000, 100)
        params = GBDTParams(n_trees=4, colsample=0.7, early_stopping_rounds=2,
                            tree=TreeParams(max_depth=3))
        extractor, peak = traced_peak(
            lambda: GBDTFeatureExtractor(params).fit(train))
        assert extractor.model_.valid_losses_  # the holdout was drawn
        assert peak < train.features.nbytes

    def test_encode_peaks_below_one_and_a_half_designs(self):
        # Forty trees on thirty features: the designs outweigh the bins.
        train = generated_train(20_000, 30)
        params = GBDTParams(n_trees=40, colsample=0.7,
                            tree=TreeParams(max_depth=3))
        extractor = GBDTFeatureExtractor(params).fit(train)
        environments, peak = traced_peak(
            lambda: extractor.encode_environments(train))
        designs = sum(env.features.columns.nbytes for env in environments)
        assert peak < 1.5 * designs
