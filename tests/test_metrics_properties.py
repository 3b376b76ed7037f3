"""Property-based tests (hypothesis) for the metric implementations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.metrics.auc import auc_score
from repro.metrics.ks import ks_score, two_sample_ks
from tests.harness import (
    assert_label_flip_symmetry,
    assert_monotone_transform_invariant,
    monotone_transforms,
)


def _labels_and_scores(min_size=4, max_size=120):
    """Strategy: binary labels with both classes + finite scores."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_size, max_size))
        labels = draw(
            hnp.arrays(np.int8, n, elements=st.integers(0, 1)).filter(
                lambda a: 0 < a.sum() < a.size
            )
        )
        scores = draw(
            hnp.arrays(
                np.float64,
                n,
                # Round to 6 decimals so affine transforms stay strictly
                # monotone in float arithmetic (no tiny-value collapse).
                elements=st.floats(-50, 50, allow_nan=False,
                                   allow_infinity=False).map(
                    lambda v: round(v, 6)
                ),
            )
        )
        return labels.astype(np.float64), scores

    return build()


class TestAucProperties:
    @settings(max_examples=60, deadline=None)
    @given(_labels_and_scores())
    def test_bounds(self, data):
        y, s = data
        assert 0.0 <= auc_score(y, s) <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(_labels_and_scores())
    def test_score_negation_complements(self, data):
        """AUC(y, -s) == 1 - AUC(y, s)."""
        y, s = data
        assert auc_score(y, -s) == np.float64(1.0) - auc_score(y, s) or abs(
            auc_score(y, -s) - (1.0 - auc_score(y, s))
        ) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(_labels_and_scores())
    def test_monotone_transform_invariance(self, data):
        y, s = data
        transformed = 2.0 * s + 7.0
        assert abs(auc_score(y, s) - auc_score(y, transformed)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(_labels_and_scores())
    def test_label_flip_complements(self, data):
        """Swapping the classes mirrors the AUC."""
        y, s = data
        assert abs(auc_score(1.0 - y, s) - (1.0 - auc_score(y, s))) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(_labels_and_scores())
    def test_permutation_invariance(self, data):
        y, s = data
        perm = np.random.default_rng(0).permutation(y.size)
        assert abs(auc_score(y, s) - auc_score(y[perm], s[perm])) < 1e-12


class TestKsProperties:
    @settings(max_examples=60, deadline=None)
    @given(_labels_and_scores())
    def test_bounds(self, data):
        y, s = data
        assert 0.0 <= ks_score(y, s) <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(_labels_and_scores())
    def test_best_orientation_recovers_two_sample_ks(self, data):
        """The signed KS of the better-oriented score equals the unsigned
        two-sample distance between the class score distributions."""
        y, s = data
        expected = two_sample_ks(s[y == 1], s[y == 0])
        best = max(ks_score(y, s), ks_score(y, -s))
        assert abs(best - expected) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(_labels_and_scores())
    def test_signed_ks_below_two_sample(self, data):
        """The signed KS never exceeds the unsigned CDF distance."""
        y, s = data
        assert ks_score(y, s) <= two_sample_ks(s[y == 1], s[y == 0]) + 1e-10

    @settings(max_examples=60, deadline=None)
    @given(_labels_and_scores())
    def test_perfect_auc_implies_perfect_ks(self, data):
        """When the classes are perfectly separated, KS is also 1."""
        y, s = data
        if auc_score(y, s) == 1.0:
            assert ks_score(y, s) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(_labels_and_scores())
    def test_ks_positive_when_auc_above_half(self, data):
        """A positively-informative AUC requires a non-zero signed KS."""
        y, s = data
        if auc_score(y, s) > 0.5 + 1e-9:
            assert ks_score(y, s) > 0.0


class TestMetamorphicRelations:
    """The shared `tests/harness.py` relations over randomized fixtures.

    These go beyond the single affine transform above: every transform in
    the harness catalogue (affine, cubic, scaled exponential, rank) must
    leave KS and AUC unchanged, and both label-flip identities must hold.
    """

    def test_transform_catalogue_is_nontrivial(self):
        names = [name for name, _ in monotone_transforms()]
        assert "affine" in names
        assert len(names) >= 3

    @settings(max_examples=60, deadline=None)
    @given(_labels_and_scores())
    def test_ks_invariant_under_monotone_transforms(self, data):
        assert_monotone_transform_invariant(ks_score, *data)

    @settings(max_examples=60, deadline=None)
    @given(_labels_and_scores())
    def test_auc_invariant_under_monotone_transforms(self, data):
        assert_monotone_transform_invariant(auc_score, *data)

    @settings(max_examples=60, deadline=None)
    @given(_labels_and_scores())
    def test_label_flip_antisymmetry(self, data):
        """AUC(1-y, s) = 1 - AUC(y, s) and KS(1-y, s) = KS(y, -s)."""
        assert_label_flip_symmetry(*data)
