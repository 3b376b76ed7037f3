"""Leaf-index one-hot encoding: the GBDT half of "GBDT+LR".

Following He et al. (2014) and Section III-C of the paper, each fitted tree
is treated as a non-linear transformation producing one categorical cross-
feature per instance — the index of the leaf the instance falls into.  The
categorical values are one-hot encoded per tree and concatenated into one
multi-hot vector (exactly one active indicator per tree).

Every row therefore has exactly ``n_trees`` ones, one in each tree's column
block, so the design matrix is stored as those active column ids alone:
:class:`LeafDesign` holds an ``(n_trees, n)`` id array and provides the two
products the LR head needs, ``X θ`` and ``Xᵀ v``.  Each product's float64
temporary stays under ``_PRODUCT_BYTES``: ``X θ`` runs in row blocks and
``Xᵀ v`` in tree groups, so a paper-scale design never gathers an
``(n_trees, n)`` float64 array.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.data.dataset import EnvironmentData
from repro.gbdt.boosting import GBDTClassifier
from repro.numerics import tree_order_sum

__all__ = [
    "LeafDesign", "LeafIndexEncoder", "encode_leaf_matrix",
    "leaf_encode_environments",
]

#: Bytes of the float64 temporary one step of a product gathers.
_PRODUCT_BYTES = 1 << 23


class LeafDesign:
    """Multi-hot leaf design matrix stored as its active column ids.

    Row ``i`` holds a one in column ``columns[t, i]`` for every tree ``t``
    and zeros elsewhere.  Tree blocks follow tree order, so each row's ids
    strictly increase with ``t``.

    The products add in the same order as a CSR matrix with these
    non-zeros (``csr_matvec`` / ``csc_matvec``), so results are
    bit-identical to it at every batch size: ``X θ`` sums each row over
    trees in tree order, and ``Xᵀ v`` sums each column over rows in
    ascending row order.  Neither depends on how a product is split under
    ``_PRODUCT_BYTES``: a row block keeps each row's tree-order sum,
    and a tree group holds every term of its trees' columns.

    Attributes:
        columns: ``(n_trees, n)`` C-contiguous ``intp`` column ids (``intp``
            so ``take`` indexes without a per-call cast).
        n_columns: Width of the design matrix.
    """

    __slots__ = ("columns", "n_columns")

    def __init__(self, columns: np.ndarray, n_columns: int):
        columns = np.ascontiguousarray(columns, dtype=np.intp)
        if columns.ndim != 2:
            raise ValueError(
                f"expected (n_trees, n) column ids, got shape {columns.shape}"
            )
        self.columns = columns
        self.n_columns = int(n_columns)

    @property
    def shape(self) -> tuple[int, int]:
        return self.columns.shape[1], self.n_columns

    @property
    def nnz(self) -> int:
        """Stored ones: ``n * n_trees``."""
        return self.columns.size

    @property
    def T(self) -> _TransposedLeafDesign:
        return _TransposedLeafDesign(self)

    def __getitem__(self, rows) -> LeafDesign:
        """Row selection by index array, mask or slice; always 2-D."""
        picked = self.columns[:, rows]
        if picked.ndim == 1:
            picked = picked[:, None]
        return LeafDesign(picked, self.n_columns)

    def __matmul__(self, theta: np.ndarray) -> np.ndarray:
        """``X θ`` as a 1-D array, adding each row's terms in tree order."""
        theta = np.asarray(theta)
        n_trees, n = self.columns.shape
        step = max(1, _PRODUCT_BYTES // (theta.itemsize * n_trees))
        if n <= step:
            return tree_order_sum(theta.take(self.columns))
        out = np.empty(n, dtype=theta.dtype)
        for lo in range(0, n, step):
            out[lo:lo + step] = tree_order_sum(
                theta.take(self.columns[:, lo:lo + step]))
        return out

    @staticmethod
    def vstack(blocks: Sequence[LeafDesign]) -> LeafDesign:
        """Concatenate designs of equal width row-wise."""
        widths = {block.n_columns for block in blocks}
        if len(widths) != 1:
            raise ValueError(f"cannot stack designs of widths {sorted(widths)}")
        return LeafDesign(
            np.concatenate([block.columns for block in blocks], axis=1),
            widths.pop(),
        )


class _TransposedLeafDesign:
    """``Xᵀ`` of a :class:`LeafDesign`; supports only ``Xᵀ @ v``."""

    __slots__ = ("design",)

    def __init__(self, design: LeafDesign):
        self.design = design

    def __matmul__(self, vector: np.ndarray) -> np.ndarray:
        """``Xᵀ v``; ``bincount`` adds each column's rows in ascending order.

        Each column belongs to one tree, so a tree group's ``bincount``
        holds its columns' full sums and +0.0 elsewhere (``bincount``
        never yields −0.0): adding the groups' results is exact.
        """
        columns = self.design.columns
        vector = np.asarray(vector, dtype=np.float64)
        n_trees, n = columns.shape
        group = max(1, _PRODUCT_BYTES // (vector.itemsize * max(n, 1)))
        sums = (
            np.bincount(columns[lo:lo + group].ravel(),
                        weights=np.tile(vector, min(group, n_trees - lo)),
                        minlength=self.design.n_columns)
            for lo in range(0, n_trees, group)
        )
        out = next(sums)
        for part in sums:
            out += part
        return out


def encode_leaf_matrix(
    leaf_matrix: np.ndarray, offsets: np.ndarray
) -> LeafDesign:
    """Build the multi-hot design for a dense leaf-index matrix.

    Args:
        leaf_matrix: ``(n, n_trees)`` per-tree dense leaf indices.
        offsets: ``(n_trees + 1,)`` cumulative leaf counts; tree ``t``'s
            one-hot block spans columns ``[offsets[t], offsets[t + 1])``.

    Returns:
        :class:`LeafDesign` of shape ``(n, offsets[-1])`` whose tree-``t``
        ids are ``leaf_matrix[:, t] + offsets[t]``.
    """
    columns = np.ascontiguousarray(leaf_matrix.T, dtype=np.intp)
    columns += np.asarray(offsets[:-1], dtype=np.intp)[:, None]
    return LeafDesign(columns, int(offsets[-1]))


class LeafIndexEncoder:
    """One-hot encoder over the leaf indices of a fitted GBDT.

    The encoder's output dimension is ``sum_t n_leaves(tree_t)``; column
    blocks follow tree order.  Every row has exactly one active column per
    tree, which :class:`LeafDesign` stores directly.
    """

    def __init__(self, model: GBDTClassifier):
        if not model.is_fitted:
            raise ValueError("encoder requires a fitted GBDTClassifier")
        self.model = model
        self._offsets = model.forest_.leaf_offsets
        self.n_output_features: int = int(self._offsets[-1])

    @property
    def n_trees(self) -> int:
        return self.model.n_trees_fitted

    def transform(self, features: np.ndarray) -> LeafDesign:
        """Encode raw features into the multi-hot design matrix.

        Args:
            features: Raw ``(n, d)`` matrix in the GBDT's input space.

        Returns:
            :class:`LeafDesign` of shape ``(n, n_output_features)`` with
            exactly ``n_trees`` ones per row.
        """
        leaf_matrix = self.model.predict_leaves(features)
        return self.encode_leaves(leaf_matrix)

    def transform_binned(self, binned: np.ndarray) -> LeafDesign:
        """Encode pre-binned rows (see :meth:`GBDTClassifier.bin_features`).

        Lets a caller share one binned matrix between probability scoring
        and leaf encoding instead of re-binning per consumer.
        """
        return self.encode_leaves(self.model.predict_leaves_binned(binned))

    def encode_leaves(self, leaf_matrix: np.ndarray) -> LeafDesign:
        """Encode a precomputed ``(n, n_trees)`` leaf-index matrix."""
        leaf_matrix = np.asarray(leaf_matrix)
        if not np.issubdtype(leaf_matrix.dtype, np.integer):
            leaf_matrix = leaf_matrix.astype(np.int64)
        if leaf_matrix.ndim != 2 or leaf_matrix.shape[1] != self.n_trees:
            raise ValueError(
                f"expected (n, {self.n_trees}) leaf matrix, got {leaf_matrix.shape}"
            )
        per_tree_leaves = np.diff(self._offsets)
        if np.any(leaf_matrix < 0) or np.any(leaf_matrix >= per_tree_leaves[None, :]):
            raise ValueError("leaf index out of range for its tree")
        return encode_leaf_matrix(leaf_matrix, self._offsets)


def leaf_encode_environments(
    model: GBDTClassifier,
    binned: np.ndarray,
    environments: Iterable[tuple[str, object, np.ndarray]],
) -> list[EnvironmentData]:
    """Leaf-encode environments that are row sets of one binned matrix.

    Each environment is routed and encoded from ``binned[rows]`` alone,
    so no design of all rows is built and then copied per environment:
    the returned designs are the only ones that exist.  Routing is row by
    row, so each design equals the matching rows of the design of all
    rows.

    Args:
        model: The fitted GBDT that binned ``binned``.
        binned: ``(n, d)`` uint8 bins (:meth:`GBDTClassifier.bin_features`).
        environments: ``(name, rows, labels)`` per environment; ``rows``
            is anything that indexes ``binned``'s rows (index array or
            slice).

    Returns:
        One :class:`~repro.data.dataset.EnvironmentData` per environment,
        in order, holding its :class:`LeafDesign` and ``labels``.
    """
    encoder = LeafIndexEncoder(model)
    return [
        EnvironmentData(name, encoder.transform_binned(binned[rows]), labels)
        for name, rows, labels in environments
    ]
