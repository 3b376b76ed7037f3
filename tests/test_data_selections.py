"""A dataset selection is a row index into its parent's feature matrix.

:meth:`LoanDataset.select` (and the filters and splits built on it) keeps
the parent's read-only matrix and a row index instead of copying the
float rows.  These tests pin a selection, bit for bit, to the dataset the
copying ``select`` built — ``LoanDataset(features[mask], ...)`` — for
boolean masks, unsorted index arrays (as ``iid_split`` draws them) and
nested selections: its features and environments, and the GBDT fit, the
LR head and the scores the pipeline derives from it.  A tracemalloc guard
checks that the split, the fit and the evaluation never copy the rows.
"""

import pickle
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import LoanDataset
from repro.data.generator import GeneratorConfig, LoanDataGenerator
from repro.data.splits import iid_split, temporal_split
from repro.gbdt.binning import QuantileBinner
from repro.gbdt.boosting import GBDTParams
from repro.pipeline.extractor import GBDTFeatureExtractor
from repro.pipeline.pipeline import LoanDefaultPipeline
from repro.train.registry import make_trainer

from tests.test_pipeline_extractor import (
    assert_same_array,
    assert_same_environments,
    assert_same_model,
)

PARAMS = GBDTParams(n_trees=6, colsample=0.7, early_stopping_rounds=2)


def copied(dataset: LoanDataset, index: np.ndarray) -> LoanDataset:
    """The dataset the copying ``select`` built: every column indexed."""
    return LoanDataset(dataset.features[index], dataset.labels[index],
                       dataset.provinces[index], dataset.years[index],
                       dataset.halves[index], dataset.schema)


def draw_index(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    """A boolean mask, or an unsorted array of distinct row indices."""
    if kind == "mask":
        return rng.random(n) < 0.7
    return rng.permutation(n)[:max(1, int(0.7 * n))]


@pytest.fixture(scope="module")
def platform():
    config = GeneratorConfig(n_samples=1_500, total_features=20,
                             n_spurious=2, seed=5)
    return LoanDataGenerator(config).generate()


def selections(platform, seed, kinds):
    """``(selection, copy)`` after selecting once per kind, in order."""
    rng = np.random.default_rng(seed)
    selection = reference = platform
    for kind in kinds:
        index = draw_index(rng, selection.n_samples, kind)
        selection = selection.select(index)
        reference = copied(reference, index)
    return selection, reference


KINDS = st.lists(st.sampled_from(["mask", "index"]), min_size=1, max_size=3)


class TestSelectionEqualsCopy:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), kinds=KINDS)
    def test_columns_features_and_environments(self, platform, seed, kinds):
        selection, reference = selections(platform, seed, kinds)
        matrix, rows = selection.feature_source
        assert matrix is platform.feature_source[0]
        assert not matrix.flags.writeable
        assert rows.size == selection.n_samples == reference.n_samples
        assert selection.n_features == reference.n_features
        for name in ("features", "labels", "provinces", "years", "halves"):
            assert_same_array(getattr(selection, name),
                              getattr(reference, name))
            assert not getattr(selection, name).flags.writeable
        for ours, theirs in zip(selection.environments(),
                                reference.environments(), strict=True):
            assert ours.name == theirs.name
            assert_same_array(ours.features, theirs.features)
            assert_same_array(ours.labels, theirs.labels)

    def test_features_is_a_fresh_gather(self, platform):
        selection = platform.filter_years((2016, 2017))
        first, second = selection.features, selection.features
        assert first is not second
        assert not np.shares_memory(first, platform.features)
        assert platform.features is platform.feature_source[0]

    def test_iid_split_keeps_the_permutation_order(self, platform):
        split = iid_split(platform, test_fraction=0.25, seed=3)
        order = np.random.default_rng(3).permutation(platform.n_samples)
        n_test = split.test.n_samples
        assert_same_array(split.test.feature_source[1], order[:n_test])
        assert_same_array(split.train.feature_source[1], order[n_test:])

    def test_select_indexes_as_numpy_does(self, platform):
        tail = platform.select(np.array([-1, -2]))
        assert_same_array(tail.features, platform.features[[-1, -2]])
        assert platform.select([]).n_samples == 0
        with pytest.raises(IndexError):
            platform.select(np.ones(3, dtype=bool))
        with pytest.raises(IndexError):
            platform.select(np.array([platform.n_samples]))

    def test_pickle_carries_the_parent_matrix(self, platform):
        selection = platform.filter_province(platform.province_names()[0])
        restored = pickle.loads(pickle.dumps(selection))
        assert_same_array(restored.features, selection.features)
        assert restored.feature_source[0].shape == platform.features.shape


class TestPipelineOnSelectionEqualsCopy:
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), kinds=KINDS)
    def test_bins_trees_theta_and_scores(self, platform, seed, kinds):
        selection, reference = selections(platform, seed, kinds)
        ours = GBDTFeatureExtractor(PARAMS)
        theirs = GBDTFeatureExtractor(PARAMS)
        assert_same_array(ours.fit_and_bin(selection),
                          theirs.fit_and_bin(reference))
        assert_same_model(ours.model_, theirs.model_)
        assert_same_environments(ours.encode_environments(selection),
                                 theirs.encode_environments(reference))
        assert_same_array(ours.transform(selection).columns,
                          theirs.transform(reference).columns)

        for method in ("LightMIRM", "ERM + fine-tuning"):
            pipelines = [
                LoanDefaultPipeline(
                    make_trainer(method, seed=0, n_epochs=3),
                    gbdt_params=PARAMS).fit(dataset)
                for dataset in (selection, reference)]
            assert_same_model(pipelines[0].gbdt_, pipelines[1].gbdt_)
            assert_same_array(pipelines[0].result_.theta,
                              pipelines[1].result_.theta)
            assert_same_array(pipelines[0].predict_proba(selection),
                              pipelines[1].predict_proba(reference))

    def test_scoring_model_scores_a_selection(self, scoring_model,
                                              small_split):
        test = small_split.test.filter_half(2)
        assert test.feature_source[1] is not None
        assert_same_array(scoring_model.predict_proba(test),
                          scoring_model.predict_proba(test.features))


class TestNonFiniteRows:
    """The in-place paths check exactly the rows they read."""

    def test_binner_and_scorer(self, scoring_model):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((6, scoring_model.scorer.n_features))
        matrix[4, 1] = np.nan
        binner = QuantileBinner().fit(matrix[:4])
        scorer = scoring_model.scorer
        rows = np.array([3, 0, 2])
        assert_same_array(binner.transform(matrix, rows),
                          binner.transform(matrix[rows]))
        assert_same_array(scorer.logits(matrix, rows),
                          scorer.logits(matrix[rows]))
        for bad in (np.array([0, 4]), np.array([4])):
            with pytest.raises(ValueError, match="finite"):
                binner.transform(matrix, bad)
            with pytest.raises(ValueError, match="finite"):
                scorer.predict_proba(matrix, bad)


# ----------------------------------------------------------- memory guard

def largest_step(call):
    """``call()`` and the most the traced heap rose within one step.

    A step runs from one trace event to the next: a call of any Python
    function, or a line or return in ``repro``'s code.  The rise is the
    traced peak within the step over the heap at its start, so an array
    that lives even for part of one line counts whole.
    """
    worst = start = 0

    def measure(frame, event, arg):
        nonlocal worst, start
        current, peak = tracemalloc.get_traced_memory()
        worst = max(worst, peak - start)
        tracemalloc.reset_peak()
        start = current
        if event == "call":
            return measure if "repro" in frame.f_code.co_filename else None
        return measure

    tracemalloc.start()
    previous = sys.gettrace()
    sys.settrace(measure)
    try:
        result = call()
    finally:
        sys.settrace(previous)
        tracemalloc.stop()
    return result, worst


@pytest.fixture(scope="module")
def wide_platform():
    config = GeneratorConfig(n_samples=20_000, total_features=60,
                             n_spurious=8, seed=2)
    return LoanDataGenerator(config).generate()


class TestSplitsCopyNoRows:
    """On 20k x 60 rows, copying the train rows once is ~7.7 MB."""

    def test_temporal_split_allocates_under_a_megabyte(self, wide_platform):
        tracemalloc.start()
        try:
            split = temporal_split(wide_platform)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert split.train.n_samples + split.test.n_samples == 20_000

    def test_no_step_of_split_fit_and_evaluate_copies_the_train_rows(
            self, wide_platform):
        def run():
            split = temporal_split(wide_platform)
            GBDTFeatureExtractor().fit(split.train)
            pipeline = LoanDefaultPipeline(
                make_trainer("LightMIRM", seed=0, n_epochs=2))
            return split, pipeline.fit(split.train).evaluate(split.test)

        (split, report), worst = largest_step(run)
        bound = split.train.n_samples * split.train.n_features * 8 // 2
        assert 0 < report.mean_auc <= 1
        assert worst < bound
        # The float-copy formulation reaches the bound in one step.
        _, copy_step = largest_step(lambda: split.train.features)
        assert copy_step >= bound
