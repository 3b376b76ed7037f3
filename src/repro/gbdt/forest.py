"""The fitted ensemble's prediction state: one forest of stacked arrays.

A fitted GBDT predicts from a :class:`Forest` — every tree's nodes stacked
into one array with global node ids, built once when fitting ends or when
a model is restored.  Each node packs into one int64::

    (left child id << 32) | (input column << 8) | byte threshold

Siblings are appended consecutively during growth, so the right child is
always ``left + 1``, and bin thresholds fit in a byte.  Leaves are
self-loops (``left`` is the leaf itself, threshold 255, which no uint8 bin
exceeds), so ``depth`` routing steps settle every row on its leaf however
shallow that leaf is.  Feature bagging is baked in: a node stores the input
column, not the tree-local feature.

Routing advances a ``(rows, trees)`` node matrix ``depth`` times —
``node = left[node] + (bin > threshold[node])`` — in row blocks sized so
the matrix stays within 128 KiB.  One pass routes every tree, so the Python
overhead is per depth level, not per tree.  The block size keeps each
temporary below glibc's default mmap threshold: with 1 MiB blocks a
serving process peaked about 2 MB higher, and bulk input (30k rows × 40
trees, 2-vCPU host) routed no faster.

The arrays are what the artifact codec and the shared-memory publisher
store, so :class:`Forest` validates them on construction: a file may hold
anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Forest"]

#: Threshold byte of a leaf: no uint8 bin exceeds it, so the self-loop
#: (the "left" edge) is always taken.
_LEAF_THRESHOLD = 255

#: Input columns must fit the 24 bits between threshold and child id.
_MAX_COLUMNS = 1 << 24

#: Size of one routing block's ``(rows, trees)`` int64 node matrix.
_BLOCK_BYTES = 1 << 17

_VALUE_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


@dataclass(frozen=True, eq=False)
class Forest:
    """Stacked prediction arrays of a boosted ensemble.

    Attributes:
        nodes: ``(n_nodes,)`` int64 packed ``(left, column, threshold)``.
        leaf: ``(n_nodes,)`` int32 dense leaf id within the node's tree;
            -1 on internal nodes.
        value: ``(n_leaves,)`` leaf values, tree after tree, in the dtype
            the trees were grown in (float32 or float64).
        roots: ``(n_trees + 1,)`` int64 node offsets; tree ``t`` owns
            nodes ``roots[t]:roots[t + 1]`` and its root is ``roots[t]``.
        depth: Maximum leaf depth over all trees — the routing step count.
        n_columns: Width of the binned matrices the forest routes.

    Derived on construction: ``n_trees``, ``leaf_offsets`` (``(n_trees +
    1,)`` cumulative leaf counts; tree ``t``'s values are
    ``value[leaf_offsets[t]:leaf_offsets[t + 1]]``) and ``block_rows``.

    Raises:
        ValueError: On any array of the wrong dtype or length, or any
            child, leaf or column id out of range.
    """

    nodes: np.ndarray
    leaf: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int
    n_columns: int

    def __post_init__(self) -> None:
        leaf_offsets = self._validate()
        n_trees = self.roots.size - 1
        object.__setattr__(self, "n_trees", n_trees)
        object.__setattr__(self, "leaf_offsets", leaf_offsets)
        # Rows per routing block: the (rows, trees) int64 node matrix of
        # one block stays within _BLOCK_BYTES.
        object.__setattr__(self, "block_rows",
                           max(1, _BLOCK_BYTES // (8 * n_trees)))

    # -------------------------------------------------------- construction

    @classmethod
    def from_nodes(cls, nodes, n_leaves: int, value_dtype,
                   columns: np.ndarray | None, n_columns: int) -> "Forest":
        """One-tree forest from a grown tree's node list.

        Args:
            nodes: The tree's ``_Node`` list, parents before children.
            n_leaves: Dense leaf count.
            value_dtype: Dtype the leaf values were grown in.
            columns: Input column of each tree-local feature (feature
                bagging), or None when the tree saw every column.
            n_columns: Width of the binned matrix the tree was grown on.
        """
        n_nodes = len(nodes)
        left = np.arange(n_nodes, dtype=np.int64)
        column = np.zeros(n_nodes, dtype=np.int64)
        threshold = np.full(n_nodes, _LEAF_THRESHOLD, dtype=np.int64)
        leaf = np.full(n_nodes, -1, dtype=np.int32)
        value = np.zeros(n_leaves, dtype=value_dtype)
        depth = 0
        for node in nodes:
            if node.is_leaf:
                leaf[node.node_id] = node.leaf_index
                value[node.leaf_index] = node.value
                depth = max(depth, node.depth)
            else:
                left[node.node_id] = node.left
                column[node.node_id] = node.feature
                threshold[node.node_id] = node.bin_threshold
        if columns is not None:
            internal = leaf < 0
            column[internal] = np.asarray(columns,
                                          dtype=np.int64)[column[internal]]
        return cls(nodes=(left << 32) | (column << 8) | threshold, leaf=leaf,
                   value=value, roots=np.array([0, n_nodes], dtype=np.int64),
                   depth=depth, n_columns=n_columns)

    @classmethod
    def stack(cls, forests: list["Forest"]) -> "Forest":
        """Concatenate forests of one input width into one, in order."""
        widths = {forest.n_columns for forest in forests}
        if len(widths) != 1:
            raise ValueError(f"cannot stack forests of widths {sorted(widths)}")
        offsets = np.cumsum([0] + [f.nodes.size for f in forests])
        return cls(
            nodes=np.concatenate([f.nodes + (int(offset) << 32)
                                  for f, offset in zip(forests, offsets)]),
            leaf=np.concatenate([f.leaf for f in forests]),
            value=np.concatenate([f.value for f in forests]),
            roots=np.concatenate(
                [f.roots[:-1] + offset for f, offset in zip(forests, offsets)]
                + [offsets[-1:]]
            ).astype(np.int64),
            depth=max(f.depth for f in forests),
            n_columns=widths.pop(),
        )

    def _validate(self) -> np.ndarray:
        """Check every array; return the cumulative leaf counts."""
        arrays = {"nodes": (self.nodes, np.int64),
                  "leaf": (self.leaf, np.int32),
                  "roots": (self.roots, np.int64)}
        for name, (array, dtype) in arrays.items():
            if not isinstance(array, np.ndarray) or array.dtype != dtype \
                    or array.ndim != 1:
                raise ValueError(f"forest {name} must be a 1-D {dtype} array")
        if not isinstance(self.value, np.ndarray) or self.value.ndim != 1 \
                or self.value.dtype not in _VALUE_DTYPES:
            raise ValueError("forest value must be a 1-D float32 or float64 "
                             "array")
        for name in ("depth", "n_columns"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"forest {name} must be an integer")
        nodes, leaf, roots = self.nodes, self.leaf, self.roots
        n_nodes = nodes.size
        if leaf.size != n_nodes:
            raise ValueError(f"forest has {n_nodes} nodes but {leaf.size} "
                             "leaf ids")
        if roots.size < 2 or roots[0] != 0 or roots[-1] != n_nodes \
                or np.any(roots[1:] <= roots[:-1]):
            raise ValueError("forest roots must rise from 0 to the node count")
        if not 0 < self.n_columns <= _MAX_COLUMNS:
            raise ValueError(f"forest n_columns {self.n_columns} out of range")
        if np.any(nodes < 0):
            raise ValueError("forest child id out of range")
        left = nodes >> 32
        column = (nodes >> 8) & (_MAX_COLUMNS - 1)
        threshold = nodes & 255
        if np.any(column >= self.n_columns):
            raise ValueError("forest column id out of range")

        sizes = np.diff(roots)
        tree_of = np.repeat(np.arange(sizes.size), sizes)
        ids = np.arange(n_nodes)
        is_leaf = leaf >= 0
        internal = ~is_leaf
        if np.any(leaf < -1):
            raise ValueError("forest leaf id out of range")
        # Leaves loop on themselves; an internal node's children are later
        # nodes of its own tree, the right one at left + 1.
        if np.any(is_leaf & ((left != ids) | (threshold != _LEAF_THRESHOLD))):
            raise ValueError("forest leaf is not a self-loop")
        if np.any(internal & ((left <= ids) | (threshold == _LEAF_THRESHOLD)
                              | (left + 1 >= roots[1:][tree_of]))):
            raise ValueError("forest child id out of range")

        # Each tree's leaf ids are exactly 0..n_leaves - 1.
        leaf_trees = tree_of[is_leaf]
        leaves_per_tree = np.bincount(leaf_trees, minlength=sizes.size)
        leaf_offsets = np.concatenate(([0], np.cumsum(leaves_per_tree)))
        local = leaf[is_leaf].astype(np.int64)
        if np.any(local >= leaves_per_tree[leaf_trees]) or np.any(
                np.bincount(leaf_offsets[leaf_trees] + local,
                            minlength=int(leaf_offsets[-1])) != 1):
            raise ValueError("forest leaf id out of range")
        if self.value.size != leaf_offsets[-1]:
            raise ValueError(f"forest has {int(leaf_offsets[-1])} leaves but "
                             f"{self.value.size} values")

        # Walk the levels: every node is reached exactly once, the deepest
        # level is exactly ``depth`` and only leaves lie below it.
        if not 0 <= self.depth <= (int(sizes.max()) - 1) // 2:
            raise ValueError(f"forest depth {self.depth} out of range")
        frontier = roots[:-1]
        reached = [frontier]
        siblings = np.arange(2)
        for _ in range(self.depth):
            frontier = left[frontier[internal[frontier]]]
            if frontier.size == 0:
                raise ValueError(f"forest depth {self.depth} exceeds its trees")
            # Both children, without a per-level Python-level numpy call.
            frontier = (frontier[:, None] + siblings).ravel()
            reached.append(frontier)
        if np.any(internal[frontier]) or np.any(
                np.bincount(np.concatenate(reached), minlength=n_nodes) != 1):
            raise ValueError("forest nodes do not form trees of the given depth")
        return leaf_offsets

    # -------------------------------------------------------------- routing

    @property
    def leaves_per_tree(self) -> np.ndarray:
        """Leaf count of each tree."""
        return np.diff(self.leaf_offsets)

    def predict_leaves(self, binned: np.ndarray) -> np.ndarray:
        """Dense leaf id of every row in every tree.

        Args:
            binned: ``(n, n_columns)`` uint8 bin indices.

        Returns:
            ``(n, n_trees)`` int32 leaf ids.
        """
        binned = np.asarray(binned)
        if binned.ndim != 2 or binned.shape[1] != self.n_columns:
            raise ValueError(
                f"expected (n, {self.n_columns}) binned rows, "
                f"got {binned.shape}"
            )
        n = binned.shape[0]
        step = self.block_rows
        if n <= step:
            return self.leaf[self._route(binned)]
        leaves = np.empty((n, self.n_trees), dtype=np.int32)
        for start in range(0, n, step):
            block = binned[start:start + step]
            leaves[start:start + block.shape[0]] = self.leaf[self._route(block)]
        return leaves

    def _route(self, binned: np.ndarray) -> np.ndarray:
        """Leaf node ids ``(rows, trees)`` of one block."""
        rows, width = binned.shape
        flat_bins = binned.ravel()
        row_offset = np.arange(0, rows * width, width, dtype=np.int64)[:, None]
        node = np.broadcast_to(self.roots[:-1], (rows, self.n_trees))
        nodes = self.nodes
        for _ in range(self.depth):
            packed = nodes[node]
            bins = flat_bins[row_offset + ((packed >> 8) & (_MAX_COLUMNS - 1))]
            node = (packed >> 32) + (bins > (packed & 255))
        return node

    def tree_values(self, tree: int) -> np.ndarray:
        """Leaf values of one tree, by dense leaf id."""
        return self.value[self.leaf_offsets[tree]:self.leaf_offsets[tree + 1]]
