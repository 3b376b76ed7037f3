"""Unit tests for the quantile binner."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gbdt.binning import QuantileBinner, ReservoirSampler, StreamedFit


class TestFitTransform:
    def test_bins_are_within_range(self, rng):
        x = rng.standard_normal((500, 4))
        binner = QuantileBinner(max_bins=16)
        binned = binner.fit_transform(x)
        assert binned.dtype == np.uint8
        assert binned.min() >= 0
        for f in range(4):
            assert binned[:, f].max() < binner.n_bins(f)

    def test_monotone_in_raw_value(self, rng):
        """Larger raw values never get smaller bin indices."""
        x = rng.standard_normal((300, 1))
        binner = QuantileBinner(max_bins=32).fit(x)
        binned = binner.transform(x).ravel()
        order = np.argsort(x.ravel())
        assert np.all(np.diff(binned[order]) >= 0)

    def test_roughly_equal_occupancy(self, rng):
        x = rng.standard_normal((10_000, 1))
        binner = QuantileBinner(max_bins=10).fit(x)
        binned = binner.transform(x).ravel()
        counts = np.bincount(binned, minlength=binner.n_bins(0))
        assert counts.min() > 0.5 * counts.mean()

    def test_constant_column_single_bin(self):
        x = np.ones((50, 1))
        binner = QuantileBinner(max_bins=8).fit(x)
        assert binner.n_bins(0) == 1
        assert np.all(binner.transform(x) == 0)

    def test_unseen_extremes_clamp_to_edge_bins(self, rng):
        x = rng.standard_normal((200, 1))
        binner = QuantileBinner(max_bins=8).fit(x)
        extremes = np.array([[-100.0], [100.0]])
        binned = binner.transform(extremes).ravel()
        assert binned[0] == 0
        assert binned[1] == binner.n_bins(0) - 1

    def test_few_distinct_values_fewer_bins(self):
        x = np.array([[0.0], [1.0], [0.0], [1.0], [2.0]])
        binner = QuantileBinner(max_bins=64).fit(x)
        assert binner.n_bins(0) <= 3


class TestValidation:
    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            QuantileBinner().transform(np.zeros((2, 2)))

    def test_wrong_column_count_raises(self, rng):
        binner = QuantileBinner().fit(rng.standard_normal((10, 3)))
        with pytest.raises(ValueError):
            binner.transform(rng.standard_normal((10, 4)))

    def test_nonfinite_raises(self):
        with pytest.raises(ValueError):
            QuantileBinner().fit(np.array([[np.nan]]))

    def test_bad_max_bins(self):
        with pytest.raises(ValueError):
            QuantileBinner(max_bins=1)
        with pytest.raises(ValueError):
            QuantileBinner(max_bins=500)

    def test_1d_input_raises(self):
        with pytest.raises(ValueError):
            QuantileBinner().fit(np.zeros(5))

    def test_zero_rows_raise_like_an_empty_stream(self):
        with pytest.raises(ValueError, match="zero rows"):
            QuantileBinner().fit(np.empty((0, 3)))
        with pytest.raises(ValueError, match="zero rows"):
            QuantileBinner().fit_streamed(iter([]))
        with pytest.raises(ValueError, match="zero rows"):
            QuantileBinner().fit_streamed([np.empty((0, 3))])


def _poisoned(shape, dtype, value, where):
    """Finite matrix with ``value`` at the first, middle or last cell."""
    x = np.arange(np.prod(shape), dtype=dtype).reshape(shape) / 7
    flat = {"first": 0, "middle": x.size // 2, "last": x.size - 1}[where]
    x.flat[flat] = value
    return x


class TestNonFiniteRejected:
    """Every entry point rejects NaN and ±inf wherever the cell sits."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_rows", [1, 40])
    def test_every_entry_point_raises(self, value, where, dtype, n_rows):
        bad = _poisoned((n_rows, 3), dtype, value, where)
        fitted = QuantileBinner(max_bins=8).fit(
            np.arange(120, dtype=np.float64).reshape(40, 3))
        with pytest.raises(ValueError, match="finite"):
            QuantileBinner(max_bins=8).fit(bad)
        with pytest.raises(ValueError, match="finite"):
            QuantileBinner(max_bins=8).fit_streamed(
                [np.zeros((5, 3), dtype=dtype), bad])
        with pytest.raises(ValueError, match="finite"):
            fitted.transform(bad)
        streamed = QuantileBinner(max_bins=8).fit_streamed(
            [np.arange(120, dtype=np.float64).reshape(40, 3) / 7])
        with pytest.raises(ValueError, match="finite"):
            streamed.transform_into(bad, np.zeros((n_rows, 3), dtype=np.uint8),
                                    np.arange(n_rows))

    def test_empty_batch_passes(self):
        fitted = QuantileBinner(max_bins=8).fit(np.eye(3))
        assert fitted.transform(np.empty((0, 3))).shape == (0, 3)


class TestCheckMatrixMemory:
    def test_finiteness_check_allocates_under_1mb(self):
        # The old (n, d) bool mask was 6.3 MB at this size.  Untouched
        # zeros read through the kernel's zero page, so this 50 MB input
        # leaves the process's RSS high-water mark where it was (the
        # getrusage tests in test_perfbench_rss.py read that mark).
        x = np.zeros((30_000, 210))
        tracemalloc.start()
        try:
            out = QuantileBinner._check_matrix(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out is x
        assert peak < 2**20


class TestBinningProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 32))
    def test_train_values_round_trip_order(self, seed, max_bins):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rng.integers(5, 200), 1))
        binner = QuantileBinner(max_bins=max_bins).fit(x)
        binned = binner.transform(x).ravel()
        values = x.ravel()
        # Same raw value -> same bin; order preserved.
        for i in range(len(values)):
            for j in range(i + 1, min(i + 5, len(values))):
                if values[i] < values[j]:
                    assert binned[i] <= binned[j]
                elif values[i] == values[j]:
                    assert binned[i] == binned[j]


def _column(kind: str, rng: np.random.Generator, n: int) -> np.ndarray:
    if kind == "normal":
        return rng.standard_normal(n)
    if kind == "collisions":
        # Distinct float64 values that round to a few float32 values.
        base = rng.standard_normal(3)[rng.integers(0, 3, n)]
        return base + rng.integers(0, 8, n) * np.spacing(base)
    if kind == "constant":
        return np.full(n, rng.standard_normal())
    if kind == "near_constant":
        return rng.standard_normal() + (rng.random(n) < rng.random()) * 1e-12
    if kind == "integers":
        return rng.integers(-3, 4, n).astype(np.float64)
    if kind == "zeros":
        return rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-45, -1e-40],
                          size=n)
    # Beyond float32 range: these round to ±inf.
    return rng.choice([1e300, -1e300, 3.5e38, -3.5e38, 2.0**128, 1.0],
                      size=n) * rng.choice([1.0, 1.0 + 2**-40], size=n)


class TestStreamedFitExact:
    """The two-pass streamed fit equals fit() on the sampled float64 rows."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(st.sampled_from(["normal", "collisions", "constant",
                                        "near_constant", "integers", "zeros",
                                        "huge"]), min_size=1, max_size=5),
        n=st.integers(1, 500),
        sample_rows=st.integers(1, 300),
        max_bins=st.sampled_from([2, 3, 64, 256]),
        block_cells=st.sampled_from([1, 300, StreamedFit._BLOCK_CELLS]),
    )
    def test_edges_and_bins_match_fit_on_the_sample(self, seed, kinds, n,
                                                    sample_rows, max_bins,
                                                    block_cells):
        rng = np.random.default_rng(seed)
        x = np.column_stack([_column(kind, rng, n) for kind in kinds])
        cuts = np.unique(rng.integers(0, n, size=rng.integers(0, 8)))
        blocks = np.split(x, cuts)
        sampler = ReservoirSampler(sample_rows, x.shape[1], seed=seed)
        for block in blocks:
            sampler.add(block)
        _, positions = sampler.sample()
        oracle = QuantileBinner(max_bins=max_bins).fit(x[positions])

        streamed = QuantileBinner(max_bins=max_bins).fit_streamed(
            iter(blocks), sample_rows=sample_rows, seed=seed)
        out = np.zeros(x.shape, dtype=np.uint8)
        row = 0
        # Small cell budgets split each pack-pass block into column blocks.
        with mock.patch.object(StreamedFit, "_BLOCK_CELLS", block_cells):
            for block in blocks:
                streamed.transform_into(block, out,
                                        np.arange(row, row + block.shape[0]))
                row += block.shape[0]
        binner = streamed.finish(out)

        for got, want in zip(binner.bin_edges_, oracle.bin_edges_):
            assert got.dtype == want.dtype == np.float64
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(out, oracle.transform(x))
