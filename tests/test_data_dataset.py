"""Unit tests for the dataset containers."""

import numpy as np
import pytest

from repro.data.dataset import EnvironmentData, LoanDataset
from repro.data.schema import build_schema


def _tiny_dataset():
    schema = build_schema(total_features=30, n_spurious=2)
    n = 20
    rng = np.random.default_rng(0)
    return LoanDataset(
        features=rng.standard_normal((n, schema.n_features)),
        labels=rng.integers(0, 2, n).astype(float),
        provinces=np.array(["A"] * 12 + ["B"] * 8, dtype=object),
        years=np.array([2016] * 10 + [2020] * 10),
        halves=np.array([1, 2] * 10),
        schema=schema,
    )


class TestLoanDataset:
    def test_basic_properties(self):
        data = _tiny_dataset()
        assert data.n_samples == 20
        assert data.n_features == 30
        assert data.province_names() == ["A", "B"]
        assert 0 <= data.default_rate <= 1

    def test_immutable(self):
        data = _tiny_dataset()
        with pytest.raises(ValueError):
            data.features[0, 0] = 99.0
        with pytest.raises(ValueError):
            data.labels[0] = 1.0

    def test_filter_years(self):
        data = _tiny_dataset()
        assert data.filter_years((2016,)).n_samples == 10
        assert data.filter_years((2016, 2020)).n_samples == 20

    def test_filter_province(self):
        data = _tiny_dataset()
        assert data.filter_province("B").n_samples == 8

    def test_filter_half(self):
        data = _tiny_dataset()
        assert data.filter_half(1).n_samples == 10

    def test_environments_partition_rows(self):
        data = _tiny_dataset()
        envs = data.environments()
        assert sum(e.n_samples for e in envs) == data.n_samples
        assert [e.name for e in envs] == ["A", "B"]

    def test_select_by_mask_and_indices(self):
        data = _tiny_dataset()
        by_mask = data.select(data.provinces == "A")
        by_idx = data.select(np.flatnonzero(data.provinces == "A"))
        np.testing.assert_array_equal(by_mask.features, by_idx.features)

    def test_province_share_by_year_sums_to_one(self):
        data = _tiny_dataset()
        for year, shares in data.province_share_by_year().items():
            assert sum(shares.values()) == pytest.approx(1.0)

    def test_shape_validation(self):
        schema = build_schema(total_features=30, n_spurious=2)
        good = np.zeros((5, schema.n_features))
        with pytest.raises(ValueError, match="labels"):
            LoanDataset(good, np.zeros(4), np.array(["A"] * 5),
                        np.full(5, 2016), np.ones(5, dtype=int), schema)
        with pytest.raises(ValueError, match="columns"):
            LoanDataset(np.zeros((5, 3)), np.zeros(5), np.array(["A"] * 5),
                        np.full(5, 2016), np.ones(5, dtype=int), schema)
        with pytest.raises(ValueError, match="halves"):
            LoanDataset(good, np.zeros(5), np.array(["A"] * 5),
                        np.full(5, 2016), np.full(5, 3), schema)

    def test_repr_readable(self):
        assert "LoanDataset" in repr(_tiny_dataset())


class TestEnvironmentData:
    def test_mismatched_rows_raise(self):
        with pytest.raises(ValueError):
            EnvironmentData("x", np.zeros((3, 2)), np.zeros(4))

    def test_default_rate(self):
        env = EnvironmentData("x", np.zeros((4, 2)),
                              np.array([0.0, 1.0, 1.0, 0.0]))
        assert env.default_rate == 0.5
