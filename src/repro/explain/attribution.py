"""Explainability: attribute the LR head's weights back to raw features.

The paper picks "GBDT+LR" for its explainability and argues (RQ5) that the
IRM-trained head relies on *invariant* features while ERM's leans on the
spurious regional correlations.  This module makes that inspectable:

* every leaf indicator the LR head weighs corresponds to a root-to-leaf
  path in one tree, and that path tests a specific set of raw features;
* distributing each indicator's |weight| (optionally scaled by how often
  the leaf fires) over its path features yields a raw-feature attribution
  of the *head*, comparable across training methods on a shared extractor.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import CausalRole, LoanFeatureSchema
from repro.gbdt.boosting import GBDTClassifier
from repro.gbdt.forest import Forest
from repro.gbdt.tree import DecisionTree
from repro.pipeline.extractor import GBDTFeatureExtractor

__all__ = [
    "leaf_path_features",
    "head_feature_attribution",
    "attribution_by_role",
    "spurious_reliance",
]


def leaf_path_features(tree: DecisionTree | Forest,
                       index: int = 0) -> list[set[int]]:
    """Per-leaf sets of input columns tested on the root-to-leaf paths.

    Read from the forest arrays, so restored models explain as well as
    freshly fitted ones.

    Args:
        tree: A fitted decision tree, or a forest.
        index: Which tree of the forest (0 for a decision tree).

    Returns:
        List indexed by dense leaf index; element ``l`` is the set of
        input columns tested on the root-to-leaf-``l`` path.  The root
        leaf of a stump-less tree has an empty set.
    """
    if isinstance(tree, DecisionTree):
        if tree.n_nodes == 0:
            raise ValueError("tree is not fitted")
        tree = tree.forest
    start = int(tree.roots[index])
    stop = int(tree.roots[index + 1])
    packed = (tree.nodes[start:stop] - (start << 32)).tolist()
    leaf = tree.leaf[start:stop].tolist()
    path_features: list[set[int]] = [set()] * (stop - start)
    result: list[set[int]] = [set()] * int(tree.leaves_per_tree[index])
    # Children have larger ids than their parent, so one pass in id
    # order sees every path before extending it.
    for node, (node_packed, leaf_id) in enumerate(zip(packed, leaf)):
        if leaf_id >= 0:
            result[leaf_id] = path_features[node]
            continue
        left = node_packed >> 32
        below = path_features[node] | {(node_packed >> 8) & 0xFFFFFF}
        path_features[left] = below
        path_features[left + 1] = set(below)
    return result


def head_feature_attribution(
    model: GBDTFeatureExtractor | GBDTClassifier,
    theta: np.ndarray,
    leaf_frequencies: np.ndarray | None = None,
) -> np.ndarray:
    """Distribute the head's |weights| over the raw features of leaf paths.

    Args:
        model: Fitted feature extractor, or the fitted (or restored) GBDT
            behind a head, e.g. ``scoring_model.encoder.model``.
        theta: LR head parameters over the leaf one-hot space.
        leaf_frequencies: Optional per-output-column firing frequencies
            (e.g. mean of the encoded design matrix); when given, each
            leaf's contribution is scaled by how often it actually fires.

    Returns:
        Array of length ``n_raw_features`` with non-negative attribution
        mass per raw feature (unnormalised).
    """
    if isinstance(model, GBDTFeatureExtractor):
        model = model.model_
    if model is None or not model.is_fitted:
        raise RuntimeError("extractor is not fitted")
    forest = model.forest_
    n_output = int(forest.leaf_offsets[-1])
    theta = np.asarray(theta, dtype=np.float64).ravel()
    if theta.size != n_output:
        raise ValueError(
            f"theta has {theta.size} entries, encoder expects {n_output}"
        )
    if leaf_frequencies is not None:
        leaf_frequencies = np.asarray(leaf_frequencies, dtype=np.float64).ravel()
        if leaf_frequencies.size != theta.size:
            raise ValueError("leaf_frequencies must align with theta")

    attribution = np.zeros(forest.n_columns)
    column = 0
    for t in range(forest.n_trees):
        for features in leaf_path_features(forest, t):
            weight = abs(theta[column])
            if leaf_frequencies is not None:
                weight *= leaf_frequencies[column]
            column += 1
            if not features or weight == 0.0:
                continue
            share = weight / len(features)
            for feature in features:
                attribution[feature] += share
    return attribution


def attribution_by_role(
    attribution: np.ndarray, schema: LoanFeatureSchema
) -> dict[str, float]:
    """Normalised attribution share per causal role of the schema."""
    attribution = np.asarray(attribution, dtype=np.float64)
    if attribution.size != schema.n_features:
        raise ValueError(
            f"attribution has {attribution.size} entries, schema has "
            f"{schema.n_features} features"
        )
    total = attribution.sum()
    if total == 0:
        return {role.value: 0.0 for role in CausalRole}
    return {
        role.value: float(
            attribution[schema.columns_with_role(role)].sum() / total
        )
        for role in CausalRole
    }


def spurious_reliance(
    extractor: GBDTFeatureExtractor,
    theta: np.ndarray,
    schema: LoanFeatureSchema,
) -> float:
    """Fraction of the head's attribution mass on spurious features.

    The RQ5 diagnostic: an invariant head should show a smaller value than
    an ERM head trained on the same extractor.
    """
    attribution = head_feature_attribution(extractor, theta)
    return attribution_by_role(attribution, schema)[CausalRole.SPURIOUS.value]
