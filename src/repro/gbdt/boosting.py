"""Gradient-boosted decision trees with logistic loss (LightGBM substitute).

Implements the boosting loop around :class:`~repro.gbdt.tree.DecisionTree`:
second-order (Newton) boosting on the binary cross-entropy objective, with
shrinkage, row/feature subsampling, and validation-based early stopping.
This is the feature-extraction GBDT of the paper's "GBDT+LR" architecture.

The hot path is allocation-disciplined: one :class:`HistogramBuilder` (and
its fused-index matrix) is shared by every boosting round, feature bagging
threads the column subset into the kernels instead of materialising
``binned[:, cols]`` per round, and the ``*_binned`` prediction variants let
callers bin a feature matrix once (:meth:`GBDTClassifier.bin_features`) and
reuse it across scores and leaf indices.

A fitted ensemble predicts from one :class:`~repro.gbdt.forest.Forest`
stacked from its trees when fitting ends (or restored from an artifact):
every ``*_binned`` predictor routes all trees in one pass.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import Mapping, Sequence

import numpy as np

from repro.gbdt.binning import QuantileBinner
from repro.gbdt.forest import Forest
from repro.gbdt.histogram import HistogramBuilder
from repro.gbdt.tree import DecisionTree, TreeParams
from repro.numerics import binary_cross_entropy, sigmoid

__all__ = ["GBDTParams", "GBDTClassifier", "fit_holdout"]

#: Fewest pooled rows :func:`fit_holdout` draws an early-stopping holdout
#: from.
MIN_HOLDOUT_ROWS = 50


@dataclass(frozen=True)
class GBDTParams:
    """Boosting hyper-parameters.

    Attributes:
        n_trees: Maximum number of boosting rounds.
        learning_rate: Shrinkage applied to each tree's contribution.
        max_bins: Histogram resolution for feature binning.
        subsample: Row-sampling fraction per tree (1.0 disables bagging).
        colsample: Feature-sampling fraction per tree.
        early_stopping_rounds: Stop when validation logloss has not improved
            for this many rounds (0 disables early stopping).
        seed: RNG seed for subsampling.
        dtype: Training-time floating dtype for histograms, split gains,
            leaf values, and the raw-score accumulator.  ``"float64"``
            (the default) is bit-identical to the historical behaviour;
            ``"float32"`` halves the hot-path working set at paper scale
            at the cost of ~1e-3-level probability drift (see
            ``docs/performance.md``).  Gradient/hessian *accumulation*
            inside the histogram kernels always runs in float64.
        tree: Per-tree growth parameters.
    """

    n_trees: int = 50
    learning_rate: float = 0.1
    max_bins: int = 64
    subsample: float = 1.0
    colsample: float = 1.0
    early_stopping_rounds: int = 0
    seed: int = 0
    dtype: str = "float64"
    tree: TreeParams = field(default_factory=TreeParams)

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if not 0.0 < self.colsample <= 1.0:
            raise ValueError("colsample must be in (0, 1]")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be 'float32' or 'float64'")

    # ----------------------------------------------- flat config surface

    @classmethod
    def flat_fields(cls) -> tuple[str, ...]:
        """Every overridable knob as one flat namespace.

        The booster's own fields (minus the nested ``tree``) plus the
        :class:`~repro.gbdt.tree.TreeParams` growth fields — the surface
        hyper-parameter search spaces validate against and
        :meth:`replace_flat` routes through.
        """
        own = tuple(f.name for f in dataclass_fields(cls) if f.name != "tree")
        tree = tuple(f.name for f in dataclass_fields(TreeParams))
        return own + tree

    def replace_flat(self, overrides: Mapping[str, object]) -> "GBDTParams":
        """A copy with flat overrides routed to their owning dataclass.

        ``max_depth``/``max_leaves``-style growth knobs land on the
        nested :class:`TreeParams`, everything else on the booster.

        Raises:
            ValueError: For names on neither dataclass.
        """
        tree_names = {f.name for f in dataclass_fields(TreeParams)}
        own_names = {
            f.name for f in dataclass_fields(type(self)) if f.name != "tree"
        }
        booster: dict[str, object] = {}
        tree: dict[str, object] = {}
        for name, value in overrides.items():
            if name in own_names:
                booster[name] = value
            elif name in tree_names:
                tree[name] = value
            else:
                raise ValueError(
                    f"unknown GBDT parameter {name!r}; "
                    f"valid: {sorted(own_names | tree_names)}"
                )
        params = replace(self, **booster) if booster else self
        if tree:
            params = replace(params, tree=replace(params.tree, **tree))
        return params

    def canonical(self) -> dict:
        """JSON-compatible canonical form: every field, tree nested,
        deterministic key order — the fingerprinting input."""
        payload = {
            f.name: getattr(self, f.name)
            for f in dataclass_fields(type(self)) if f.name != "tree"
        }
        payload["tree"] = {
            f.name: getattr(self.tree, f.name)
            for f in dataclass_fields(TreeParams)
        }
        return payload

    @classmethod
    def from_canonical(cls, payload: Mapping[str, object]) -> "GBDTParams":
        """Inverse of :meth:`canonical`."""
        own = {key: value for key, value in payload.items() if key != "tree"}
        return cls(tree=TreeParams(**payload["tree"]), **own)

    def fingerprint(self) -> str:
        """Stable 16-hex content hash of the full configuration.

        Two :class:`GBDTParams` agree on the fingerprint iff they agree
        on every field (including nested tree growth params) — the
        extractor-encoding cache keys on this plus the dataset
        fingerprint and split seed.
        """
        encoded = json.dumps(self.canonical(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


class GBDTClassifier:
    """Binary classifier trained by Newton gradient boosting.

    Usage::

        model = GBDTClassifier(GBDTParams(n_trees=100))
        model.fit(X_train, y_train, X_valid, y_valid)
        proba = model.predict_proba(X_test)
        leaves = model.predict_leaves(X_test)   # for the GBDT+LR encoder

    Callers that need several views of the same rows (scores *and* leaf
    indices) should bin once and use the
    ``*_binned`` variants::

        binned = model.bin_features(X_test)
        proba = model.predict_proba_binned(binned)
        leaves = model.predict_leaves_binned(binned)
    """

    def __init__(self, params: GBDTParams | None = None):
        self.params = params or GBDTParams()
        self.binner = QuantileBinner(max_bins=self.params.max_bins)
        #: Growth-time trees (nodes and split gains); only a model fitted
        #: in this process has them.
        self.trees_: list[DecisionTree] = []
        #: The prediction state, built when fitting ends or on restore.
        self.forest_: Forest | None = None
        self.base_score_: float = 0.0
        self.train_losses_: list[float] = []
        self.valid_losses_: list[float] = []

    @property
    def is_fitted(self) -> bool:
        return self.forest_ is not None

    @property
    def n_trees_fitted(self) -> int:
        return 0 if self.forest_ is None else self.forest_.n_trees

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        valid_features: np.ndarray | None = None,
        valid_labels: np.ndarray | None = None,
    ) -> "GBDTClassifier":
        """Fit the boosted ensemble.

        Args:
            features: Training matrix ``(n, d)``.
            labels: Binary labels ``(n,)``.
            valid_features: Optional validation matrix for early stopping.
            valid_labels: Labels for the validation matrix.

        Returns:
            self.
        """
        # ``asarray`` with a matching dtype is a no-copy view; only
        # non-float inputs are upcast.  The binner accepts float32 and
        # float64 without copying either.
        labels = np.asarray(labels, dtype=np.float64).ravel()
        features = np.asarray(features)
        if features.shape[0] != labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if features.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._check_labels(labels)

        binned = self.binner.fit_transform(features)

        valid_binned = None
        if valid_features is not None:
            if valid_labels is None:
                raise ValueError("valid_labels required with valid_features")
            valid_labels = np.asarray(valid_labels, dtype=np.float64).ravel()
            valid_binned = self.binner.transform(valid_features)
        return self._fit_core(binned, labels, valid_binned, valid_labels)

    def fit_binned(
        self,
        binned: np.ndarray,
        labels: np.ndarray,
        binner: QuantileBinner,
        valid_binned: np.ndarray | None = None,
        valid_labels: np.ndarray | None = None,
    ) -> "GBDTClassifier":
        """Fit from a pre-binned uint8 matrix (streamed / packed datasets).

        The paper-scale pipeline bins rows chunk-at-a-time into shared
        memory (:func:`repro.gbdt.pack_generated`) so the raw float64
        matrix never exists; this entry point trains directly on that
        layout.

        Args:
            binned: ``(n, d)`` uint8 bin indices, produced by ``binner``.
            labels: Binary labels ``(n,)``.
            binner: The fitted :class:`QuantileBinner` that produced
                ``binned`` — adopted so serving-time ``bin_features``
                keeps working.  Its ``max_bins`` must match the params.
            valid_binned: Optional pre-binned validation matrix.
            valid_labels: Labels for the validation matrix.

        Returns:
            self.
        """
        if not binner.is_fitted:
            raise ValueError("binner must be fitted")
        if binner.max_bins != self.params.max_bins:
            raise ValueError(
                "binner.max_bins does not match GBDTParams.max_bins"
            )
        binned = np.asarray(binned)
        if binned.dtype != np.uint8:
            raise ValueError("binned matrix must be uint8")
        labels = np.asarray(labels, dtype=np.float64).ravel()
        if binned.shape[0] != labels.shape[0]:
            raise ValueError("binned and labels disagree on sample count")
        if binned.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._check_labels(labels)
        self.binner = binner

        if valid_binned is not None:
            if valid_labels is None:
                raise ValueError("valid_labels required with valid_binned")
            valid_labels = np.asarray(valid_labels, dtype=np.float64).ravel()
            valid_binned = np.asarray(valid_binned)
        return self._fit_core(binned, labels, valid_binned, valid_labels)

    @staticmethod
    def _check_labels(labels: np.ndarray) -> None:
        if not np.all((labels == 0.0) | (labels == 1.0)):
            raise ValueError("labels must be binary 0/1")

    def _fit_core(
        self,
        binned: np.ndarray,
        labels: np.ndarray,
        valid_binned: np.ndarray | None,
        valid_labels: np.ndarray | None,
    ) -> "GBDTClassifier":
        params = self.params
        rng = np.random.default_rng(params.seed)
        n, d = binned.shape
        value_dtype = np.dtype(params.dtype)
        builder = HistogramBuilder(
            binned, params.max_bins, hist_dtype=value_dtype
        )
        # float64 path: ``astype(copy=False)`` is the identity, so the
        # loop below is bit-identical to the historical implementation.
        labels_t = labels.astype(value_dtype, copy=False)

        use_valid = valid_binned is not None

        # Base score: log-odds of the prior default rate.
        prior = float(np.clip(labels.mean(), 1e-6, 1 - 1e-6))
        self.base_score_ = float(np.log(prior / (1.0 - prior)))
        raw = np.full(n, self.base_score_, dtype=value_dtype)
        if use_valid:
            valid_raw = np.full(
                valid_labels.shape[0], self.base_score_, dtype=value_dtype
            )

        self.trees_ = []
        self.forest_ = None
        self.train_losses_ = []
        self.valid_losses_ = []
        best_valid = np.inf
        rounds_since_best = 0

        for _ in range(params.n_trees):
            prob = sigmoid(raw)
            gradients = prob - labels_t
            hessians = np.maximum(prob * (1.0 - prob), 1e-12).astype(
                value_dtype, copy=False
            )

            row_subset = None
            if params.subsample < 1.0:
                size = max(1, int(round(params.subsample * n)))
                row_subset = rng.choice(n, size=size, replace=False)
                # Sorted rows make the histogram gathers sequential in
                # memory; set-based statistics are order-invariant, so
                # fitted trees are unchanged.
                row_subset.sort()
            col_subset = None
            if params.colsample < 1.0:
                size = max(1, int(round(params.colsample * d)))
                col_subset = np.sort(rng.choice(d, size=size, replace=False))

            tree = DecisionTree(params.tree)
            tree.fit(
                binned,
                gradients,
                hessians,
                max_bins=params.max_bins,
                sample_indices=row_subset,
                column_subset=col_subset,
                builder=builder,
                value_dtype=value_dtype,
            )
            self.trees_.append(tree)

            raw += params.learning_rate * tree.fit_values(binned)
            self.train_losses_.append(
                binary_cross_entropy(labels, sigmoid(raw))
            )

            if use_valid:
                valid_raw += params.learning_rate * tree.predict_value(
                    valid_binned
                )
                valid_loss = binary_cross_entropy(
                    valid_labels, sigmoid(valid_raw)
                )
                self.valid_losses_.append(valid_loss)
                if valid_loss < best_valid - 1e-9:
                    best_valid = valid_loss
                    rounds_since_best = 0
                elif params.early_stopping_rounds:
                    rounds_since_best += 1
                    if rounds_since_best >= params.early_stopping_rounds:
                        break
        self.forest_ = Forest.stack([tree.forest for tree in self.trees_])
        return self

    # ------------------------------------------------------- transform-once

    def bin_features(self, features: np.ndarray,
                     rows: np.ndarray | None = None) -> np.ndarray:
        """Bin a raw feature matrix (``features[rows]``, read in place)
        once, for reuse by ``*_binned`` calls."""
        self._check_fitted()
        return self.binner.transform(features, rows)

    def decision_function_binned(self, binned: np.ndarray) -> np.ndarray:
        """Raw additive score (log-odds) over pre-binned rows.

        Adds ``learning_rate * value`` tree after tree, the order the
        boosting loop used; leaf values keep the dtype they were grown in,
        so a float32 model's products stay float32.
        """
        leaves = self.predict_leaves_binned(binned)
        raw = np.full(leaves.shape[0], self.base_score_)
        for t in range(self.forest_.n_trees):
            raw += self.params.learning_rate * self.forest_.tree_values(t)[
                leaves[:, t]
            ]
        return raw

    def predict_proba_binned(self, binned: np.ndarray) -> np.ndarray:
        """Default probabilities over pre-binned rows."""
        return sigmoid(self.decision_function_binned(binned))

    def predict_leaves_binned(self, binned: np.ndarray) -> np.ndarray:
        """Leaf-index matrix ``(n, n_trees)`` over pre-binned rows.

        int32 — dense leaf indices are bounded by the per-tree leaf
        budget, and the narrow dtype halves the matrix the leaf encoder
        walks at paper scale.
        """
        self._check_fitted()
        return self.forest_.predict_leaves(binned)

    # ------------------------------------------------------ raw-feature API

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Raw additive score (log-odds)."""
        return self.decision_function_binned(self.bin_features(features))

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Predicted default probabilities."""
        return sigmoid(self.decision_function(features))

    def predict_leaves(self, features: np.ndarray) -> np.ndarray:
        """Leaf index of every sample in every tree.

        Returns:
            ``(n, n_trees)`` int matrix; column ``t`` holds the dense leaf
            index of each sample in tree ``t`` — the categorical cross-
            feature the GBDT+LR encoder one-hot expands.
        """
        return self.predict_leaves_binned(self.bin_features(features))

    def leaves_per_tree(self) -> list[int]:
        """Leaf count of each fitted tree (sizes of the one-hot blocks)."""
        self._check_fitted()
        return self.forest_.leaves_per_tree.tolist()

    def feature_importance(self) -> np.ndarray:
        """Gain-based importance summed over trees, in input-column order.

        Raises:
            RuntimeError: On a restored model — split gains live on the
                growth-time trees, which only a model fitted in this
                process holds.
        """
        self._check_fitted()
        if not self.trees_:
            raise RuntimeError(
                "feature importance requires split gains recorded from "
                "growth-time histograms; a restored model has none"
            )
        d = len(self.binner.bin_edges_)
        importance = np.zeros(d)
        for tree in self.trees_:
            cols = (tree.column_subset if tree.column_subset is not None
                    else np.arange(d))
            importance[cols] += tree.feature_importance(cols.size)
        return importance

    def _check_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("GBDTClassifier is not fitted")


def fit_holdout(
    params: GBDTParams,
    blocks: Sequence[np.ndarray],
    labels: np.ndarray,
    fraction: float,
    seed,
    rows: np.ndarray | None = None,
) -> tuple[GBDTClassifier, np.ndarray]:
    """Fit a GBDT on pooled row blocks with an early-stopping holdout.

    The raw rows are binned once, into one pooled uint8 matrix, and the
    fit and holdout parts are gathered from it; no float copy of either
    part is made.  The binner learns its edges from the fit rows column
    by column (:meth:`QuantileBinner.fit_columns`).  The model equals,
    bit for bit, :meth:`GBDTClassifier.fit` on the stacked blocks' fit
    rows with the holdout rows as its validation set.

    A holdout is drawn only when ``params.early_stopping_rounds`` is set,
    ``0 < fraction < 1`` and at least :data:`MIN_HOLDOUT_ROWS` rows are
    pooled.  ``order = default_rng(seed).permutation(n)`` then holds out
    its first ``max(1, round(fraction * n))`` rows and fits on the rest,
    in that order (seed ``0`` is :func:`repro.data.splits.validation_split`'s
    order).  Otherwise every row is fit on, in block order.

    Args:
        params: Booster configuration.
        blocks: ``(n_i, d)`` raw feature blocks, pooled in this order;
            float32, float64 or mixed (pooled columns take the stacked
            dtype, as ``np.vstack`` would).
        labels: ``(n,)`` binary labels of the pooled rows.
        fraction: Pooled-row share held out for early stopping.
        seed: Entropy of the holdout permutation; anything
            :func:`numpy.random.default_rng` accepts.
        rows: Optional row indices into a single block: pool
            ``blocks[0][rows]``, read in place (a dataset selection's
            :attr:`~repro.data.dataset.LoanDataset.feature_source`).

    Returns:
        ``(fitted model, pooled (n, d) uint8 bins)``.

    Raises:
        ValueError: When the holdout leaves no row to fit on, besides
            :meth:`GBDTClassifier.fit`'s input errors.
    """
    blocks = [np.asarray(block) for block in blocks]
    if len({block.shape[1:] for block in blocks}) != 1 \
            or blocks[0].ndim != 2:
        raise ValueError("blocks must be 2-D with one column count")
    if rows is not None and len(blocks) != 1:
        raise ValueError("rows index a single block")
    labels = np.asarray(labels, dtype=np.float64).ravel()
    n = sum(block.shape[0] for block in blocks) if rows is None else len(rows)
    if n == 0:
        raise ValueError("cannot fit on an empty dataset")
    if n != labels.shape[0]:
        raise ValueError("features and labels disagree on sample count")
    fit_rows = valid_rows = None
    if params.early_stopping_rounds and 0.0 < fraction < 1.0 \
            and n >= MIN_HOLDOUT_ROWS:
        order = np.random.default_rng(seed).permutation(n)
        n_valid = max(1, int(round(fraction * n)))
        if n_valid >= n:
            raise ValueError(
                f"holdout fraction {fraction} of {n} rows leaves no rows "
                f"to fit on")
        valid_rows, fit_rows = order[:n_valid], order[n_valid:]

    def pooled(parts: list[np.ndarray]) -> np.ndarray:
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    fit_source = rows if rows is None or fit_rows is None else rows[fit_rows]

    def fit_column(f: int) -> np.ndarray:
        if rows is not None:
            return blocks[0][fit_source, f]
        column = pooled([block[:, f] for block in blocks])
        return column if fit_rows is None else column[fit_rows]

    model = GBDTClassifier(params)
    binner = model.binner.fit_columns(
        fit_column(f) for f in range(blocks[0].shape[1]))
    binned = pooled([binner.transform(block, rows) for block in blocks])
    if fit_rows is None:
        model.fit_binned(binned, labels, binner)
    else:
        model.fit_binned(binned[fit_rows], labels[fit_rows], binner,
                         valid_binned=binned[valid_rows],
                         valid_labels=labels[valid_rows])
    return model, binned
