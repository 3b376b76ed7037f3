"""The served GBDT+LR model as one compiled scorer over raw rows.

A GBDT+LR score is ``σ(Σ_t θ[column of the leaf row x reaches in tree t])``.
The training code reaches it in four passes, each with its own
temporaries: bin the raw rows (:class:`~repro.gbdt.binning.QuantileBinner`),
route the bins through the :class:`~repro.gbdt.forest.Forest`, one-hot the
leaves (:class:`~repro.gbdt.leaf_encoder.LeafDesign`) and take the head's
product with ``θ``.  Two of them fold into the forest:

* **Binning folds into thresholds.**  The binner maps ``x`` to
  ``#(edges < x)`` (``searchsorted(side="left")``), so ``bin > t`` holds
  exactly when ``x > edges[t]`` for ``t < len(edges)``, and never for a
  larger ``t``.  Each internal node stores one float64 raw threshold;
  leaves, and byte thresholds past a column's last edge, get ``+inf``,
  which no finite value exceeds.
* **The head folds into leaf values.**  Each leaf node carries the ``θ``
  entry of its design column, and a row's logit adds its trees' entries
  in tree order (:func:`~repro.numerics.tree_order_sum`), the order
  ``LeafDesign @ θ`` adds them.

So :class:`CompiledScorer` scores raw rows bit for bit as the layered path
does, in one routing pass.  It is built from the arrays an artifact stores
(the forest, the bin edges and ``θ``) and this module imports no training
code, so a serving process loads and scores a model without the GBDT's
growth code.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.gbdt.forest import Forest
from repro.numerics import check_finite, sigmoid, tree_order_sum

__all__ = ["CompiledScorer"]


class CompiledScorer:
    """GBDT+LR default probabilities in one pass over raw feature rows.

    Args:
        forest: The fitted (or restored) forest; its byte thresholds index
            each column's edges.
        edge_data: Every column's ascending bin edges
            (``QuantileBinner.bin_edges_``), concatenated in column order.
        edge_offsets: ``(n_columns + 1,)`` bounds: column ``c``'s edges
            are ``edge_data[edge_offsets[c]:edge_offsets[c + 1]]``.  These
            two are the binner arrays an artifact stores.
        theta: The LR head over the forest's leaf design, one entry per
            leaf, trees in order.

    Raises:
        ValueError: If the offsets do not bound one edge array per forest
            column, or ``theta`` does not have one entry per leaf.
    """

    __slots__ = ("n_features", "n_leaves", "_left", "_column", "_split",
                 "_leaf_column", "_value", "_roots", "_depth", "_block_rows")

    def __init__(self, forest: Forest, edge_data: np.ndarray,
                 edge_offsets: np.ndarray, theta: np.ndarray):
        edge_offsets = np.asarray(edge_offsets, dtype=np.intp)
        if edge_offsets.shape != (forest.n_columns + 1,):
            raise ValueError(f"{edge_offsets.size} edge offsets for a forest "
                             f"of {forest.n_columns} columns")
        nodes = forest.nodes
        column = ((nodes >> 8) & 0xFFFFFF).astype(np.intp)
        index = edge_offsets[column] + (nodes & 255)
        # Every edge, then +inf at the index no in-range threshold takes.
        edges = np.append(np.asarray(edge_data, dtype=np.float64), np.inf)
        inside = (forest.leaf < 0) & (index < edge_offsets[column + 1])
        self._split = edges[np.where(inside, index, edges.size - 1)]
        self._left = nodes >> 32
        self._column = column
        tree_of = np.repeat(np.arange(forest.n_trees), np.diff(forest.roots))
        self._leaf_column = np.where(
            forest.leaf >= 0, forest.leaf_offsets[tree_of] + forest.leaf,
            0).astype(np.intp)
        self._roots = forest.roots[:-1, None]
        self._depth = forest.depth
        self._block_rows = forest.block_rows
        self.n_features = forest.n_columns
        self.n_leaves = int(forest.leaf_offsets[-1])
        self._value = self._leaf_values(theta)

    def _leaf_values(self, theta: np.ndarray) -> np.ndarray:
        """``θ`` at each node's design column (``θ[0]`` on internal nodes,
        which no routed row ends on)."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.n_leaves,):
            raise ValueError(f"theta has shape {theta.shape}, the forest has "
                             f"{self.n_leaves} leaves")
        return theta.take(self._leaf_column)

    def with_theta(self, theta: np.ndarray) -> CompiledScorer:
        """The same forest and edges under another head (shares arrays)."""
        other = copy.copy(self)
        other._value = self._leaf_values(theta)
        return other

    def predict_proba(self, features: np.ndarray,
                      rows: np.ndarray | None = None) -> np.ndarray:
        """Default probabilities ``σ(X θ)`` of raw ``(n, n_features)`` rows
        (of ``features[rows]`` when ``rows`` is given, gathered a block at
        a time instead of copied whole).

        Raises:
            ValueError: On input that is not a 2-D matrix of
                ``n_features`` columns, or holds a NaN or ±inf; the same
                errors the binner raises.
        """
        return sigmoid(self.logits(features, rows))

    def logits(self, features: np.ndarray,
               rows: np.ndarray | None = None) -> np.ndarray:
        """Linear scores ``X θ`` of raw rows (see :meth:`predict_proba`)."""
        matrix = np.asarray(features)
        if matrix.dtype not in (np.float32, np.float64):
            matrix = matrix.astype(np.float64)
        if matrix.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if rows is None:
            check_finite(matrix)
        if matrix.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, "
                             f"got {matrix.shape[1]}")
        step = self._block_rows
        if rows is None and matrix.shape[0] <= step:
            return self._block_logits(matrix)
        out = np.empty(matrix.shape[0] if rows is None else len(rows))
        for start in range(0, out.size, step):
            if rows is None:
                block = matrix[start:start + step]
            else:
                block = matrix[rows[start:start + step]]
                check_finite(block)
            out[start:start + step] = self._block_logits(block)
        return out

    def _block_logits(self, rows: np.ndarray) -> np.ndarray:
        """Logits of one block, routed as a ``(trees, rows)`` node matrix
        (C order, so the gathered ``θ`` entries add in tree order)."""
        n, width = rows.shape
        flat = rows.ravel()
        row_start = np.arange(0, n * width, width, dtype=np.intp)
        node = np.broadcast_to(self._roots, (self._roots.shape[0], n))
        left, column, split = self._left, self._column, self._split
        for _ in range(self._depth):
            node = left[node] + (flat[row_start + column[node]] > split[node])
        return tree_order_sum(self._value.take(node))
