"""Memory-bounded binning: reservoir, streamed fit, shared-memory packing."""

import dataclasses
import os

import numpy as np
import pytest

from repro.data.generator import GeneratorConfig, LoanDataGenerator
from repro.gbdt.binning import QuantileBinner, ReservoirSampler
from repro.gbdt.histogram import HistogramBuilder
from repro.gbdt.packing import PackedBinnedDataset, pack_generated
from repro.parallel.shared import SharedArrayPack


def _stream_fit(x, chunk, max_bins, sample_rows=1_000, seed=0):
    """Both passes of a streamed fit over ``x`` in ``chunk``-row blocks."""
    starts = range(0, x.shape[0], chunk)
    streamed = QuantileBinner(max_bins=max_bins).fit_streamed(
        (x[i:i + chunk] for i in starts), sample_rows=sample_rows, seed=seed)
    out = np.zeros(x.shape, dtype=np.uint8)
    for i in starts:
        streamed.transform_into(x[i:i + chunk], out,
                                np.arange(i, min(i + chunk, x.shape[0])))
    return streamed.finish(out), out


class TestReservoirSampler:
    def test_under_capacity_keeps_everything_in_order(self, rng):
        sampler = ReservoirSampler(capacity=100, n_features=4)
        blocks = [rng.standard_normal((30, 4)) for _ in range(3)]
        for block in blocks:
            sampler.add(block)
        values, positions = sampler.sample()
        assert values.dtype == np.float32
        np.testing.assert_array_equal(
            values, np.vstack(blocks).astype(np.float32))
        np.testing.assert_array_equal(positions, np.arange(90))
        assert sampler.n_seen == 90

    def test_over_capacity_is_bounded_and_drawn_from_stream(self, rng):
        sampler = ReservoirSampler(capacity=50, n_features=2, seed=7)
        seen = []
        for _ in range(10):
            block = rng.standard_normal((40, 2))
            seen.append(block)
            sampler.add(block)
        values, positions = sampler.sample()
        assert values.shape == (50, 2)
        assert sampler.n_seen == 400
        assert np.unique(positions).size == 50
        # Each slot holds the float32 rounding of the row it names.
        np.testing.assert_array_equal(
            values, np.vstack(seen)[positions].astype(np.float32))

    def test_deterministic_given_seed(self, rng):
        blocks = [rng.standard_normal((60, 3)) for _ in range(4)]
        samples = []
        for _ in range(2):
            sampler = ReservoirSampler(capacity=40, n_features=3, seed=3)
            for block in blocks:
                sampler.add(block)
            samples.append(sampler.sample())
        for a, b in zip(*samples):
            np.testing.assert_array_equal(a, b)

    def test_flags_columns_that_are_not_float32(self, rng):
        sampler = ReservoirSampler(capacity=20, n_features=3, seed=1)
        block = np.column_stack([
            rng.integers(0, 5, 30).astype(np.float64),
            rng.standard_normal(30),
            np.full(30, 1e300),
        ])
        sampler.add(block)
        np.testing.assert_array_equal(sampler.inexact, [False, True, True])

    def test_coverage_is_roughly_uniform(self):
        """Every stream position must have a fair chance of surviving."""
        hits = np.zeros(500)
        stream = np.arange(500, dtype=np.float64)[:, None]
        for seed in range(200):
            sampler = ReservoirSampler(capacity=50, n_features=1, seed=seed)
            for start in range(0, 500, 100):
                sampler.add(stream[start:start + 100])
            values, _ = sampler.sample()
            hits[values[:, 0].astype(int)] += 1
        # Expected 20 hits per position over 200 trials of k/n = 0.1.
        assert hits.min() > 5
        assert hits.max() < 45


class TestFitStreamed:
    def test_equals_fit_when_stream_fits_in_sample(self, rng):
        x = rng.standard_normal((400, 6))
        direct = QuantileBinner(max_bins=16).fit(x)
        binner, out = _stream_fit(x, chunk=37, max_bins=16)
        assert len(direct.bin_edges_) == len(binner.bin_edges_)
        for a, b in zip(direct.bin_edges_, binner.bin_edges_):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(out, direct.transform(x))

    def test_subsampled_edges_still_bin_consistently(self, rng):
        x = rng.standard_normal((5_000, 3))
        binner, out = _stream_fit(x, chunk=500, max_bins=32, seed=1)
        np.testing.assert_array_equal(out, binner.transform(x))
        assert out.max() < 32
        # Quantile-ish edges: all bins of a dense column are populated.
        assert np.unique(out[:, 0]).size > 16

    def test_columns_of_float32_values_match_fit(self, rng):
        x = np.column_stack([rng.integers(0, 9, 300).astype(np.float64),
                             rng.standard_normal(300).astype(np.float32)])
        direct = QuantileBinner(max_bins=8).fit(x)
        binner, out = _stream_fit(x, chunk=64, max_bins=8)
        for a, b in zip(direct.bin_edges_, binner.bin_edges_):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(out, direct.transform(x))

    def test_shorter_second_pass_raises(self, rng):
        x = rng.standard_normal((100, 2))
        streamed = QuantileBinner(max_bins=8).fit_streamed([x])
        out = np.zeros(x.shape, dtype=np.uint8)
        streamed.transform_into(x[:60], out, np.arange(60))
        with pytest.raises(ValueError, match="stream changed"):
            streamed.finish(out)

    def test_longer_second_pass_raises(self, rng):
        x = rng.standard_normal((100, 2))
        streamed = QuantileBinner(max_bins=8).fit_streamed([x[:60]])
        out = np.zeros(x.shape, dtype=np.uint8)
        with pytest.raises(ValueError, match="stream changed"):
            streamed.transform_into(x, out, np.arange(100))

    def test_changed_sampled_value_raises(self, rng):
        x = rng.standard_normal((100, 2))
        streamed = QuantileBinner(max_bins=2).fit_streamed([x])
        changed = x.copy()
        # The median cell: a sampled value inside a bracket.
        changed[np.argsort(x[:, 0])[49], 0] += 1.0
        out = np.zeros(x.shape, dtype=np.uint8)
        streamed.transform_into(changed, out, np.arange(100))
        with pytest.raises(ValueError, match="stream changed"):
            streamed.finish(out)


class TestTransformInto:
    def test_matches_transform(self, rng):
        x = rng.standard_normal((300, 5))
        binner, out = _stream_fit(x, chunk=300, max_bins=16)
        np.testing.assert_array_equal(out, binner.transform(x))

    def test_row_scatter(self, rng):
        x = rng.standard_normal((100, 4))
        streamed = QuantileBinner(max_bins=8).fit_streamed([x])
        out = np.zeros((200, 4), dtype=np.uint8)
        rows = np.arange(100) * 2 + 1
        streamed.transform_into(x, out, rows)
        binner = streamed.finish(out)
        np.testing.assert_array_equal(out[rows], binner.transform(x))
        assert not out[::2].any()

    def test_rejects_wrong_dtype_or_width(self, rng):
        x = rng.standard_normal((50, 3))
        streamed = QuantileBinner(max_bins=8).fit_streamed([x])
        with pytest.raises(ValueError):
            streamed.transform_into(x, np.zeros((50, 3), dtype=np.int64),
                                    np.arange(50))
        with pytest.raises(ValueError):
            streamed.transform_into(x, np.zeros((50, 2), dtype=np.uint8),
                                    np.arange(50))


class TestNoCopyRegression:
    """The fit/transform paths must not copy conforming float inputs."""

    def test_check_matrix_passes_float64_through(self, rng):
        x = rng.standard_normal((50, 3))
        assert QuantileBinner._check_matrix(x) is x

    def test_check_matrix_passes_float32_through(self, rng):
        x = rng.standard_normal((50, 3)).astype(np.float32)
        assert QuantileBinner._check_matrix(x) is x

    def test_check_matrix_upcasts_integers(self, rng):
        x = rng.integers(0, 10, size=(50, 3))
        out = QuantileBinner._check_matrix(x)
        assert out.dtype == np.float64
        assert not np.shares_memory(out, x)

    def test_gbdt_fit_does_not_copy_float64_features(self, rng, monkeypatch):
        from repro.gbdt.binning import QuantileBinner as Binner
        from repro.gbdt.boosting import GBDTClassifier, GBDTParams

        x = rng.standard_normal((400, 5))
        y = (rng.random(400) < 0.3).astype(np.float64)
        seen: list[bool] = []
        original = Binner.fit_transform

        def spy(self, features):
            seen.append(np.shares_memory(features, x))
            return original(self, features)

        monkeypatch.setattr(Binner, "fit_transform", spy)
        GBDTClassifier(GBDTParams(n_trees=2, max_bins=8)).fit(x, y)
        assert seen == [True]


class TestSharedAllocate:
    def test_allocate_and_fill(self):
        pack = SharedArrayPack.allocate(
            {"a": ((4, 3), "u1"), "b": ((4,), "f8")},
            meta={"tag": "t"},
        )
        try:
            views = pack.writable_arrays()
            views["a"][:] = 7
            views["b"][:] = np.arange(4.0)
            read = pack.arrays()
            assert read["a"].dtype == np.uint8
            np.testing.assert_array_equal(read["a"], np.full((4, 3), 7))
            np.testing.assert_array_equal(read["b"], np.arange(4.0))
            assert pack.spec.metadata()["tag"] == "t"
        finally:
            pack.dispose()

    def test_writable_arrays_owner_only(self):
        pack = SharedArrayPack.allocate({"a": ((2,), "f8")})
        try:
            attached = SharedArrayPack.attach(pack.spec)
            with pytest.raises(RuntimeError):
                attached.writable_arrays()
            attached.close()
        finally:
            pack.dispose()


class TestPackGenerated:
    @pytest.fixture(scope="class")
    def packed_and_reference(self):
        config = GeneratorConfig.small(seed=13)
        generator = LoanDataGenerator(config)
        packed = pack_generated(generator, chunk_rows=977, max_bins=32)
        reference = LoanDataGenerator(config).generate()
        yield packed, reference
        packed.dispose()

    def test_binned_bit_identical_to_one_shot(self, packed_and_reference):
        packed, reference = packed_and_reference
        expected = packed.binner.transform(reference.features)
        np.testing.assert_array_equal(packed.binned, expected)

    def test_bins_are_column_major_and_read_in_place(
            self, packed_and_reference):
        packed, _ = packed_and_reference
        assert packed.binned.T.flags.c_contiguous
        builder = HistogramBuilder(packed.binned, 32)
        assert np.shares_memory(builder._bins_t, packed.binned)

    def test_labels_and_groupings_match(self, packed_and_reference):
        packed, reference = packed_and_reference
        np.testing.assert_array_equal(packed.labels, reference.labels)
        names = np.asarray(packed.province_names, dtype=object)
        np.testing.assert_array_equal(names[packed.province_codes],
                                      reference.provinces)
        np.testing.assert_array_equal(packed.years, reference.years)
        np.testing.assert_array_equal(packed.halves, reference.halves)

    def test_chunk_size_does_not_change_the_pack(self):
        config = GeneratorConfig(n_samples=1_200, total_features=26,
                                 n_spurious=4, seed=5)
        packs = [
            pack_generated(LoanDataGenerator(config), chunk_rows=rows,
                           max_bins=16)
            for rows in (None, 61)
        ]
        try:
            np.testing.assert_array_equal(packs[0].binned, packs[1].binned)
            np.testing.assert_array_equal(packs[0].labels, packs[1].labels)
        finally:
            for pack in packs:
                pack.dispose()

    def test_rows_for_province(self, packed_and_reference):
        packed, reference = packed_and_reference
        by_province = packed.province_rows()
        # Registry order; a province without rows is absent.
        assert list(by_province) == [
            name for name in packed.province_names
            if (reference.provinces == name).any()
        ]
        for name, rows in by_province.items():
            np.testing.assert_array_equal(
                rows, np.flatnonzero(reference.provinces == name))

    def test_stream_longer_than_the_sample_packs_exact_edges(self):
        config = GeneratorConfig(n_samples=3_000, total_features=26,
                                 n_spurious=4, seed=11)
        packed = pack_generated(LoanDataGenerator(config), chunk_rows=97,
                                max_bins=32, sample_rows=500, binner_seed=4)
        try:
            blocks = [chunk.features.copy() for chunk in
                      LoanDataGenerator(config).generate_chunks(97)]
            sampler = ReservoirSampler(500, blocks[0].shape[1], seed=4)
            for block in blocks:
                sampler.add(block)
            _, positions = sampler.sample()
            stream = np.vstack(blocks)
            oracle = QuantileBinner(max_bins=32).fit(stream[positions])
            for a, b in zip(packed.binner.bin_edges_, oracle.bin_edges_):
                np.testing.assert_array_equal(a, b)
            reference = LoanDataGenerator(config).generate()
            np.testing.assert_array_equal(
                packed.binned, oracle.transform(reference.features))
        finally:
            packed.dispose()

    def test_changed_second_stream_raises_and_releases_the_block(self):
        config = GeneratorConfig(n_samples=600, total_features=26,
                                 n_spurious=4, seed=2)
        stream = np.vstack([chunk.features.copy() for chunk in
                            LoanDataGenerator(config).generate_chunks()])
        # The stream's median of column 0: sampled (the stream fits in
        # the sample) and the only target rank at max_bins=2.
        target = int(np.argsort(stream[:, 0])[(len(stream) - 1) // 2])

        class Drifting(LoanDataGenerator):
            passes = 0

            def generate_chunks(self, chunk_rows=None):
                self.passes += 1
                position = 0
                for chunk in super().generate_chunks(chunk_rows):
                    m = chunk.features.shape[0]
                    if self.passes == 2 and position <= target < position + m:
                        features = chunk.features.copy()
                        features[target - position, 0] += 1.0
                        chunk = dataclasses.replace(chunk, features=features)
                    position += m
                    yield chunk

        def segments():
            return {name for name in os.listdir("/dev/shm")
                    if name.startswith("psm_")}

        before = segments()
        with pytest.raises(ValueError, match="stream changed"):
            pack_generated(Drifting(config), max_bins=2)
        assert segments() <= before

    def test_resident_size_is_uint8_dominated(self, packed_and_reference):
        packed, reference = packed_and_reference
        n, d = reference.features.shape
        raw_bytes = reference.features.nbytes
        # uint8 bins + per-row sidecars: far below the float64 matrix.
        assert packed.nbytes < raw_bytes / 4
        assert packed.n_samples == n
        assert packed.n_features == d
