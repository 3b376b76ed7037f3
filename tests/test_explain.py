"""Unit + integration tests for head attribution explainability."""

import numpy as np
import pytest

from repro.data.schema import CausalRole
from repro.explain import (
    attribution_by_role,
    head_feature_attribution,
    leaf_path_features,
    spurious_reliance,
)
from repro.gbdt.binning import QuantileBinner
from repro.gbdt.tree import DecisionTree, TreeParams


class TestLeafPathFeatures:
    @pytest.fixture()
    def fitted_tree(self, rng):
        x = rng.standard_normal((400, 3))
        target = np.where(x[:, 0] > 0, 2.0, -1.0) + np.where(
            x[:, 1] > 0, 0.5, -0.5
        )
        binned = QuantileBinner(max_bins=16).fit_transform(x)
        tree = DecisionTree(TreeParams(max_leaves=6, min_child_samples=10))
        tree.fit(binned, -target, np.ones(400), max_bins=16)
        return tree

    def test_one_set_per_leaf(self, fitted_tree):
        paths = leaf_path_features(fitted_tree)
        assert len(paths) == fitted_tree.n_leaves

    def test_paths_contain_split_features_only(self, fitted_tree):
        forest = fitted_tree.forest
        used = set(((forest.nodes[forest.leaf < 0] >> 8) & 0xFFFFFF).tolist())
        for path in leaf_path_features(fitted_tree):
            assert path <= used

    def test_signal_feature_on_most_paths(self, fitted_tree):
        paths = leaf_path_features(fitted_tree)
        with_signal = sum(1 for p in paths if 0 in p)
        assert with_signal >= len(paths) - 1

    def test_unfitted_tree_raises(self):
        with pytest.raises(ValueError):
            leaf_path_features(DecisionTree())


class TestHeadAttribution:
    def test_shapes_and_nonnegativity(self, fitted_extractor):
        theta = np.random.default_rng(0).standard_normal(
            fitted_extractor.n_output_features
        )
        attribution = head_feature_attribution(fitted_extractor, theta)
        assert attribution.shape == (
            len(fitted_extractor.model_.binner.bin_edges_),
        )
        assert np.all(attribution >= 0)
        assert attribution.sum() > 0

    def test_zero_theta_zero_attribution(self, fitted_extractor):
        theta = np.zeros(fitted_extractor.n_output_features)
        attribution = head_feature_attribution(fitted_extractor, theta)
        assert attribution.sum() == 0.0

    def test_scaling_theta_scales_attribution(self, fitted_extractor):
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(fitted_extractor.n_output_features)
        a1 = head_feature_attribution(fitted_extractor, theta)
        a2 = head_feature_attribution(fitted_extractor, 3.0 * theta)
        np.testing.assert_allclose(a2, 3.0 * a1)

    def test_leaf_frequencies_reweight(self, fitted_extractor, small_split):
        rng = np.random.default_rng(2)
        theta = rng.standard_normal(fitted_extractor.n_output_features)
        encoded = fitted_extractor.transform(small_split.train)
        frequencies = encoded.T @ np.full(encoded.shape[0],
                                          1.0 / encoded.shape[0])
        weighted = head_feature_attribution(
            fitted_extractor, theta, leaf_frequencies=frequencies
        )
        plain = head_feature_attribution(fitted_extractor, theta)
        assert not np.allclose(weighted, plain)

    def test_wrong_theta_size_raises(self, fitted_extractor):
        with pytest.raises(ValueError):
            head_feature_attribution(fitted_extractor, np.zeros(3))


class TestRoleAggregation:
    def test_shares_sum_to_one(self, fitted_extractor, small_dataset):
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(fitted_extractor.n_output_features)
        attribution = head_feature_attribution(fitted_extractor, theta)
        shares = attribution_by_role(attribution, small_dataset.schema)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert set(shares) == {r.value for r in CausalRole}

    def test_zero_attribution_zero_shares(self, small_dataset):
        shares = attribution_by_role(
            np.zeros(small_dataset.schema.n_features), small_dataset.schema
        )
        assert all(v == 0.0 for v in shares.values())

    def test_size_mismatch_raises(self, small_dataset):
        with pytest.raises(ValueError):
            attribution_by_role(np.zeros(3), small_dataset.schema)


class TestSpuriousRelianceRQ5:
    def test_lightmirm_relies_less_on_spurious_than_erm(
        self, fitted_extractor, train_envs, small_dataset
    ):
        """The RQ5 diagnostic: the invariant head puts a smaller share of
        its weight on the spurious regional signals than the ERM head."""
        from repro.train.registry import make_trainer

        erm = make_trainer("ERM", seed=0).fit(train_envs)
        light = make_trainer("LightMIRM", seed=0).fit(train_envs)
        erm_share = spurious_reliance(
            fitted_extractor, erm.theta, small_dataset.schema
        )
        light_share = spurious_reliance(
            fitted_extractor, light.theta, small_dataset.schema
        )
        assert 0 < light_share < 1
        assert light_share < erm_share
