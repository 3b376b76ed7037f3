"""Unit tests for the gradient/hessian histogram builder."""

import tracemalloc

import numpy as np
import pytest

from repro.gbdt.histogram import HistogramBuilder


@pytest.fixture()
def toy():
    binned = np.array(
        [[0, 1], [1, 1], [2, 0], [0, 2], [1, 0]], dtype=np.uint8
    )
    gradients = np.array([0.5, -0.2, 0.3, 0.1, -0.4])
    hessians = np.array([0.25, 0.16, 0.21, 0.09, 0.24])
    return binned, gradients, hessians


class TestBuildHistogram:
    def test_totals_match_sums(self, toy):
        binned, g, h = toy
        rows = np.arange(5)
        hist = HistogramBuilder(binned, 4).build(g, h, rows)
        assert hist.total_grad == pytest.approx(g.sum())
        assert hist.total_hess == pytest.approx(h.sum())
        assert hist.total_count == 5

    def test_per_bin_values(self, toy):
        binned, g, h = toy
        hist = HistogramBuilder(binned, 4).build(g, h, np.arange(5))
        # Feature 0, bin 0 holds rows 0 and 3.
        assert hist.grad[0, 0] == pytest.approx(g[0] + g[3])
        assert hist.hess[0, 0] == pytest.approx(h[0] + h[3])
        assert hist.count[0, 0] == 2
        # Feature 1, bin 1 holds rows 0 and 1.
        assert hist.grad[1, 1] == pytest.approx(g[0] + g[1])

    def test_subset_of_rows(self, toy):
        binned, g, h = toy
        hist = HistogramBuilder(binned, 4).build(g, h, np.array([1, 2]))
        assert hist.total_count == 2
        assert hist.total_grad == pytest.approx(g[1] + g[2])

    def test_every_feature_row_sums_to_total(self, toy):
        binned, g, h = toy
        hist = HistogramBuilder(binned, 4).build(g, h, np.arange(5))
        for f in range(binned.shape[1]):
            assert hist.grad[f].sum() == pytest.approx(hist.total_grad)
            assert hist.count[f].sum() == hist.total_count


class TestSubtraction:
    def test_sibling_subtraction_identity(self, toy):
        binned, g, h = toy
        parent = HistogramBuilder(binned, 4).build(g, h, np.arange(5))
        left_rows = np.array([0, 3])
        right_rows = np.array([1, 2, 4])
        left = HistogramBuilder(binned, 4).build(g, h, left_rows)
        right_direct = HistogramBuilder(binned, 4).build(g, h, right_rows)
        right_subtracted = parent.subtract(left)
        np.testing.assert_allclose(right_subtracted.grad, right_direct.grad)
        np.testing.assert_allclose(right_subtracted.hess, right_direct.hess)
        np.testing.assert_allclose(right_subtracted.count, right_direct.count)


class TestFusedKernelMemory:
    """The small-node kernel's scratch is bounded, not rows × columns.

    Deterministic: ``tracemalloc`` counts NumPy's traced allocations, no
    wall clock or RSS.  At 8,191 rows × 210 columns the old kernel's int64
    slot array and float64 weight expansion needed about 29 MB.
    """

    @pytest.mark.parametrize("bagged", [False, True])
    def test_peak_traced_below_4mb(self, bagged):
        rng = np.random.default_rng(0)
        n, d = 10_000, 210
        binned = rng.integers(0, 64, size=(n, d), dtype=np.uint8)
        g = rng.standard_normal(n)
        h = rng.random(n)
        rows = np.sort(rng.choice(n, size=8_191, replace=False))
        cols = np.arange(0, d, 2) if bagged else None
        builder = HistogramBuilder(binned, 64)
        tracemalloc.start()
        try:
            hist = builder.build(g, h, rows, column_subset=cols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hist.total_count == 8_191
        assert peak < 4 * 2**20
