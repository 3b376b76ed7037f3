"""The one environment split, ``group_rows``, and every consumer of it.

The property test checks ``group_rows`` against a per-key mask oracle.
The equality tests rebuild each consumer's output with the per-province
boolean masks that were used before the split was shared, and demand
the same names, order and values bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.finetune import FineTuneConfig, FineTuneTrainer
from repro.data.dataset import group_rows
from repro.gbdt.packing import PackedBinnedDataset
from repro.metrics.fairness import evaluate_environments
from repro.parallel.shared import SharedArrayPack

_NAMES = ["Hubei", "Anhui", "guangdong", "Z9", "b", "A"]

_KEYS = st.one_of(
    st.lists(st.sampled_from(_NAMES), max_size=40).map(
        lambda v: np.array(v, dtype=object)),
    st.lists(st.sampled_from(_NAMES), max_size=40).map(
        lambda v: np.array(v, dtype=str)),
    # Negative and multi-digit ints: numeric order is not string order.
    st.lists(st.integers(-12, 12), max_size=40).map(
        lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.integers(0, 30), max_size=40).map(
        lambda v: np.array(v, dtype=np.int16)),
)


def _mask_oracle(keys):
    names = sorted(set(keys.tolist()))
    return names, [np.flatnonzero(keys == name) for name in names]


def _check_split(keys):
    names, rows = group_rows(keys)
    expected_names, expected_rows = _mask_oracle(keys)
    assert names == expected_names
    assert names == sorted(names)
    assert len(rows) == len(names)
    for got, want in zip(rows, expected_rows):
        np.testing.assert_array_equal(got, want)
        assert np.all(np.diff(got) > 0)
    joined = np.concatenate(rows) if rows else np.empty(0, dtype=np.intp)
    np.testing.assert_array_equal(np.sort(joined), np.arange(keys.shape[0]))


class TestGroupRows:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_KEYS)
    def test_matches_mask_oracle(self, keys):
        _check_split(keys)

    @pytest.mark.parametrize("dtype", [object, np.int64])
    def test_empty_input(self, dtype):
        names, rows = group_rows(np.array([], dtype=dtype))
        assert names == [] and rows == []

    def test_one_key(self):
        names, rows = group_rows(np.array(["Hubei"] * 5, dtype=object))
        assert names == ["Hubei"]
        np.testing.assert_array_equal(rows[0], np.arange(5))

    def test_int_keys_keep_numeric_order(self):
        names, _ = group_rows(np.array([10, -3, 2, 10, -3]))
        assert names == [-3, 2, 10]


class TestDatasetConsumers:
    """Each consumer against its per-province mask formulation."""

    def test_environments(self, small_dataset):
        data = small_dataset
        got = data.environments()
        assert [e.name for e in got] == data.province_names()
        for env in got:
            mask = data.provinces == env.name
            np.testing.assert_array_equal(env.features, data.features[mask])
            np.testing.assert_array_equal(env.labels, data.labels[mask])

    def test_by_province(self, small_dataset):
        data = small_dataset
        values = np.arange(data.n_samples) * 0.5
        got = data.by_province(values)
        assert list(got) == data.province_names()
        for name, part in got.items():
            np.testing.assert_array_equal(part, values[data.provinces == name])

    def test_province_rows(self, small_dataset):
        data = small_dataset
        for name, rows in data.province_rows().items():
            np.testing.assert_array_equal(
                rows, np.flatnonzero(data.provinces == name))

    def test_province_share_by_year(self, small_dataset):
        data = small_dataset
        # A province absent from one year still gets a 0.0 share there.
        subset = data.select(~((data.years == data.years.min())
                               & (data.provinces == data.provinces[0])))
        for dataset in (data, subset):
            expected = {}
            for year in sorted(np.unique(dataset.years).tolist()):
                year_mask = dataset.years == year
                year_provinces = dataset.provinces[year_mask]
                expected[year] = {
                    name: float(np.sum(year_provinces == name))
                    / int(year_mask.sum())
                    for name in dataset.province_names()
                }
            assert dataset.province_share_by_year() == expected
        year = int(data.years.min())
        assert subset.province_share_by_year()[year][data.provinces[0]] == 0.0


class TestScoringConsumers:
    def test_extractor_scores_finetuned_per_province(
            self, train_envs, fitted_extractor, small_split):
        result = FineTuneTrainer(FineTuneConfig(n_epochs=3)).fit(train_envs)
        assert result.is_per_environment
        test = small_split.test
        design = fitted_extractor.transform(test)
        expected = np.empty(test.n_samples)
        for name in np.unique(test.provinces):
            mask = test.provinces == name
            expected[mask] = result.predict_proba_env(
                str(name), design[np.flatnonzero(mask)])
        got = fitted_extractor.predict_proba(test, result)
        np.testing.assert_array_equal(got, expected)

    def test_pipeline_evaluate(self, fitted_pipeline, small_split):
        test = small_split.test
        scores = fitted_pipeline.predict_proba(test)
        expected = evaluate_environments(
            {name: test.labels[test.provinces == name]
             for name in test.province_names()},
            {name: scores[test.provinces == name]
             for name in test.province_names()},
        )
        got = fitted_pipeline.evaluate(test)
        assert got == expected
        assert list(got.per_environment) == list(expected.per_environment)


class TestPackedProvinceRows:
    def test_registry_order_and_empty_provinces_absent(self):
        names = ("Zhejiang", "Anhui", "Hubei", "Beijing")
        codes = np.array([2, 0, 2, 3, 0, 0, 3], dtype=np.int16)
        pack = SharedArrayPack.pack({"province_codes": codes})
        try:
            packed = PackedBinnedDataset(pack=pack, binner=None,
                                         province_names=names)
            got = packed.province_rows()
            expected = {}
            for code, name in enumerate(names):
                rows = np.flatnonzero(codes == code)
                if rows.size:
                    expected[name] = rows
            assert list(got) == list(expected) == [
                "Zhejiang", "Hubei", "Beijing"]
            for name, rows in expected.items():
                np.testing.assert_array_equal(got[name], rows)
        finally:
            pack.dispose()
