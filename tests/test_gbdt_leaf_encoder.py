"""Unit tests for the leaf one-hot encoder (the GBDT+LR bridge)."""

import numpy as np
import pytest
from scipy import sparse

from repro.gbdt.boosting import GBDTClassifier, GBDTParams
from repro.gbdt.leaf_encoder import LeafDesign, LeafIndexEncoder, encode_leaf_matrix


def dense(design: LeafDesign) -> np.ndarray:
    """The multi-hot matrix a :class:`LeafDesign` stands for."""
    out = np.zeros(design.shape)
    out[np.arange(design.shape[0])[None, :], design.columns] = 1.0
    return out


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((500, 4))
    logit = x[:, 0] - 0.5 * x[:, 1]
    y = (rng.random(500) < 1 / (1 + np.exp(-logit))).astype(float)
    model = GBDTClassifier(GBDTParams(n_trees=6)).fit(x, y)
    return model, x


class TestTransform:
    def test_output_is_leaf_design(self, fitted):
        model, x = fitted
        encoder = LeafIndexEncoder(model)
        out = encoder.transform(x)
        assert isinstance(out, LeafDesign)
        assert out.shape == (500, encoder.n_output_features)
        assert out.nnz == 500 * encoder.n_trees

    def test_exactly_one_hot_per_tree(self, fitted):
        model, x = fitted
        encoder = LeafIndexEncoder(model)
        out = encoder.transform(x)
        matrix = dense(out)
        np.testing.assert_array_equal(matrix.sum(axis=1), encoder.n_trees)
        assert set(np.unique(matrix)) == {0.0, 1.0}

    def test_block_structure(self, fitted):
        """Each tree's indicator lands in its own column block."""
        model, x = fitted
        encoder = LeafIndexEncoder(model)
        out = dense(encoder.transform(x))
        offsets = np.concatenate(([0], np.cumsum(model.leaves_per_tree())))
        for t in range(encoder.n_trees):
            block = out[:, offsets[t]:offsets[t + 1]]
            np.testing.assert_array_equal(block.sum(axis=1), 1.0)

    def test_consistent_with_predict_leaves(self, fitted):
        model, x = fitted
        encoder = LeafIndexEncoder(model)
        leaves = model.predict_leaves(x)
        out = encoder.transform(x)
        rebuilt = encoder.encode_leaves(leaves)
        np.testing.assert_array_equal(out.columns, rebuilt.columns)
        assert out.shape == rebuilt.shape


class TestValidation:
    def test_unfitted_model_rejected(self):
        with pytest.raises(ValueError):
            LeafIndexEncoder(GBDTClassifier())

    def test_bad_leaf_matrix_shape(self, fitted):
        model, _ = fitted
        encoder = LeafIndexEncoder(model)
        with pytest.raises(ValueError):
            encoder.encode_leaves(np.zeros((3, encoder.n_trees + 1), dtype=int))

    def test_out_of_range_leaf_raises(self, fitted):
        model, _ = fitted
        encoder = LeafIndexEncoder(model)
        bad = np.zeros((1, encoder.n_trees), dtype=int)
        bad[0, 0] = 10_000
        with pytest.raises(ValueError):
            encoder.encode_leaves(bad)


class TestIndexDtype:
    """``intp`` column ids, so ``take`` indexes without a per-call cast."""

    def test_columns_use_intp(self, fitted):
        model, x = fitted
        out = LeafIndexEncoder(model).transform(x)
        assert out.columns.dtype == np.intp
        assert out.columns.flags.c_contiguous

    def test_leaf_matrix_output_is_int32(self, fitted):
        model, x = fitted
        leaves = model.predict_leaves(x)
        assert leaves.dtype == np.int32

    def test_int32_product_matches_int64_reference(self, fitted):
        model, x = fitted
        encoder = LeafIndexEncoder(model)
        leaves = model.predict_leaves(x)
        offsets = np.concatenate(([0], np.cumsum(model.leaves_per_tree())))
        design = encoder.encode_leaves(leaves)

        # Hand-built int64 CSR with the same structure.
        indices = (leaves.astype(np.int64)
                   + offsets[:-1][None, :]).ravel()
        indptr = np.arange(leaves.shape[0] + 1, dtype=np.int64) * leaves.shape[1]
        wide = sparse.csr_matrix(
            (np.ones(indices.size, dtype=np.float32), indices, indptr),
            shape=design.shape,
        )
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(design.shape[1])
        np.testing.assert_array_equal(design @ theta, wide @ theta)
        np.testing.assert_array_equal(dense(design), wide.toarray())

    def test_int64_when_ranges_demand_it(self):
        # Fake offsets whose final column count exceeds int32.
        offsets = np.array([0, 2**31 + 8, 2**31 + 10], dtype=np.int64)
        leaf_matrix = np.array([[0, 1], [2**31 + 7, 0]], dtype=np.int64)
        out = encode_leaf_matrix(leaf_matrix, offsets)
        assert out.shape == (2, 2**31 + 10)
        np.testing.assert_array_equal(
            out.columns, [[0, 2**31 + 7], [2**31 + 9, 2**31 + 8]]
        )

    def test_encode_leaves_accepts_int32_without_upcast(self, fitted):
        model, x = fitted
        encoder = LeafIndexEncoder(model)
        leaves32 = model.predict_leaves(x)
        leaves64 = leaves32.astype(np.int64)
        a = encoder.encode_leaves(leaves32)
        b = encoder.encode_leaves(leaves64)
        assert a.columns.tobytes() == b.columns.tobytes()


def random_design(rng, n, n_trees):
    leaves_per_tree = rng.integers(2, 32, size=n_trees)
    offsets = np.concatenate(([0], np.cumsum(leaves_per_tree)))
    leaf_matrix = np.column_stack(
        [rng.integers(0, c, size=n) for c in leaves_per_tree]
    ).astype(np.int32)
    return encode_leaf_matrix(leaf_matrix, offsets)


def as_csr(design: LeafDesign) -> sparse.csr_matrix:
    """The CSR matrix the encoder used to emit for the same leaves."""
    n, width = design.shape
    n_trees = design.columns.shape[0]
    indices = np.ascontiguousarray(design.columns.T, dtype=np.int32).ravel()
    indptr = np.arange(n + 1, dtype=np.int32) * n_trees
    data = np.ones(indices.size, dtype=np.float32)
    return sparse.csr_matrix((data, indices, indptr), shape=(n, width))


def spread(rng, size):
    """Random signs and magnitudes spanning 1e-3 to 1e3."""
    return rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3, size)


class TestProductsMatchCSR:
    """``X θ`` and ``Xᵀ v`` equal scipy's CSR products bit for bit."""

    @pytest.mark.parametrize("n_trees", [1, 3, 40])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 600, 2000])
    def test_matvec_and_rmatvec(self, n, n_trees):
        rng = np.random.default_rng(1000 * n + n_trees)
        design = random_design(rng, n, n_trees)
        csr = as_csr(design)
        for _ in range(3):
            theta = spread(rng, design.shape[1])
            assert np.array_equal(design @ theta, csr @ theta)
            v = spread(rng, n)
            assert np.array_equal(design.T @ v, np.asarray(csr.T @ v).ravel())

    def test_single_row_of_many_trees(self):
        """One row is where a plain reduce would add pairwise, not in
        tree order."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            design = random_design(rng, int(rng.integers(1, 5)), 40)
            theta = spread(rng, design.shape[1])
            assert np.array_equal(design @ theta, as_csr(design) @ theta)


class TestLeafDesign:
    @pytest.fixture()
    def design(self):
        return random_design(np.random.default_rng(11), 50, 4)

    @pytest.mark.parametrize(
        "rows",
        [np.array([3, 0, 49, 3]), np.arange(50) % 3 == 0, slice(5, 20), 7],
        ids=["indices", "mask", "slice", "scalar"],
    )
    def test_row_selection(self, design, rows):
        picked = design[rows]
        expected = dense(design)[rows].reshape(-1, design.shape[1])
        assert picked.shape == expected.shape
        np.testing.assert_array_equal(dense(picked), expected)
        assert picked.columns.flags.c_contiguous

    def test_vstack(self, design):
        stacked = LeafDesign.vstack([design[:10], design[10:]])
        np.testing.assert_array_equal(stacked.columns, design.columns)
        assert stacked.shape == design.shape

    def test_vstack_rejects_mixed_widths(self, design):
        other = LeafDesign(design.columns, design.n_columns + 1)
        with pytest.raises(ValueError):
            LeafDesign.vstack([design, other])
