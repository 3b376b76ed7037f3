"""What a fitted GBDT keeps: prediction structure and recorded split gains.

Histograms and row indices are growth-time state.  A fitted tree drops
them, so a fitted model's memory is its forest arrays, its node list
and its binner — not ``n_nodes × n_features × max_bins`` histogram
cells.  Feature importance is read from the split gains recorded during
growth; the goldens below pin it bit for bit to the values the older
recompute-from-histograms implementation produced.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from repro.gbdt.boosting import GBDTClassifier, GBDTParams
from repro.gbdt.tree import TreeParams


def _problem(seed: int, n: int, d: int):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    logit = (1.5 * x[:, 0] - x[:, 1] + 0.5 * x[:, 2] * x[:, 3]
             - 0.7 * x[:, 5])
    y = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(float)
    return x, y


def _flat_nbytes(model: GBDTClassifier) -> int:
    """Bytes of the model's forest arrays."""
    total = 0
    for f in dataclasses.fields(model.forest_):
        value = getattr(model.forest_, f.name)
        if isinstance(value, np.ndarray):
            total += value.nbytes
    return total


@pytest.mark.parametrize("dtype", ["float64", "float32"])
class TestFittedModelHoldsNoGrowthState:
    PARAMS = dict(n_trees=20, tree=TreeParams(max_leaves=15))

    def test_every_node_dropped_its_histogram_and_rows(self, dtype):
        x, y = _problem(5, 3_000, 20)
        model = GBDTClassifier(GBDTParams(dtype=dtype, **self.PARAMS))
        model.fit(x, y)
        for tree in model.trees_:
            assert tree.n_nodes == 2 * tree.n_leaves - 1
            for node in tree._nodes:
                assert node.histogram is None
                assert node.sample_indices.size == 0
                assert (node.gain is None) == node.is_leaf

    def test_retained_bytes_bounded_by_flat_trees(self, dtype):
        """Traced bytes the fitted model holds stay a small multiple of
        its forest arrays (~23x measured: per-node Python objects, the
        per-tree forests and the binner's edges; ~17x of the twice-larger
        per-tree arrays that preceded the forest).  Kept histograms made
        it ~800-1100x."""
        x, y = _problem(5, 3_000, 20)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            model = GBDTClassifier(GBDTParams(dtype=dtype, **self.PARAMS))
            model.fit(x, y)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        flat = _flat_nbytes(model)
        assert flat > 0
        assert held < 32 * flat, (held, flat)


#: ``GBDTClassifier.feature_importance()`` as ``float.hex`` per column,
#: produced by the implementation that recomputed gains from kept
#: histograms on every call.
IMPORTANCE_GOLDEN = {
    "float64": [
        "0x1.1d3112205bc90p+10", "0x1.14f8092e52e57p+9", "0x0.0p+0",
        "0x1.85f27a04cbc3cp+5", "0x1.3af83d0b45e06p+3",
        "0x1.68f24a6608e70p+8", "0x1.40b9dbc309f54p+3", "0x0.0p+0",
    ],
    "float32": [
        "0x1.1d311114a15d6p+10", "0x1.14f80999929fdp+9", "0x0.0p+0",
        "0x1.85f276d037f1bp+5", "0x1.3af83be4a1e00p+3",
        "0x1.68f2490a724dcp+8", "0x1.40b9dbaa82a43p+3", "0x0.0p+0",
    ],
    "colsample": [
        "0x1.ceda7914d2a5cp+9", "0x1.ade8c21283b97p+8",
        "0x1.be3d4eb507fcdp+2", "0x1.c8abeb19130a2p+4",
        "0x1.2716529808351p+5", "0x1.5b6e3b1615af6p+8",
        "0x1.b364938d11254p+5", "0x1.5b36f8e1748e8p+3",
    ],
}

IMPORTANCE_PARAMS = {
    "float64": GBDTParams(n_trees=12, tree=TreeParams(max_leaves=8)),
    "float32": GBDTParams(n_trees=12, dtype="float32",
                          tree=TreeParams(max_leaves=8)),
    "colsample": GBDTParams(n_trees=12, colsample=0.5, seed=3,
                            tree=TreeParams(max_leaves=8)),
}


@pytest.mark.parametrize("case", sorted(IMPORTANCE_GOLDEN))
def test_feature_importance_golden(case):
    x, y = _problem(20230401, 1_200, 8)
    model = GBDTClassifier(IMPORTANCE_PARAMS[case]).fit(x, y)
    importance = model.feature_importance()
    assert importance.dtype == np.float64
    assert [float(v).hex() for v in importance] == IMPORTANCE_GOLDEN[case]
