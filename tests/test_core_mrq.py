"""Unit + property tests for the Meta-loss Replay Queue."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mrq import MetaLossReplayQueue


class TestPush:
    def test_initialised_with_zeros(self):
        q = MetaLossReplayQueue(length=4, gamma=0.9)
        np.testing.assert_array_equal(q.values, np.zeros(4))
        assert q.occupancy == 0.0

    def test_fifo_shift(self):
        q = MetaLossReplayQueue(length=3, gamma=0.9)
        for v in (1.0, 2.0, 3.0, 4.0):
            q.push(v)
        np.testing.assert_array_equal(q.values, [2.0, 3.0, 4.0])

    def test_newest_is_last(self):
        q = MetaLossReplayQueue(length=3, gamma=0.9)
        q.push(7.0)
        assert q.newest() == 7.0

    def test_warm_after_length_pushes(self):
        q = MetaLossReplayQueue(length=3, gamma=0.9)
        for i in range(3):
            assert q.occupancy < 1.0
            q.push(float(i))
        assert q.occupancy == 1.0

    def test_non_finite_rejected(self):
        q = MetaLossReplayQueue(length=2, gamma=0.9)
        with pytest.raises(ValueError):
            q.push(float("nan"))
        with pytest.raises(ValueError):
            q.push(float("inf"))


class TestDecayedSum:
    def test_matches_equation_nine(self):
        """R_meta = sum_i gamma^(L-i) H[i] with H[L] the newest."""
        gamma = 0.8
        q = MetaLossReplayQueue(length=3, gamma=gamma)
        q.push(1.0)
        q.push(2.0)
        q.push(3.0)
        expected = gamma**2 * 1.0 + gamma**1 * 2.0 + gamma**0 * 3.0
        assert q.decayed_sum() == pytest.approx(expected)

    def test_newest_entry_has_unit_weight(self):
        q = MetaLossReplayQueue(length=5, gamma=0.5)
        q.push(10.0)
        # All other entries are zero, so the sum is exactly the newest.
        assert q.decayed_sum() == pytest.approx(10.0)

    def test_length_one_has_no_replay(self):
        q = MetaLossReplayQueue(length=1, gamma=0.9)
        q.push(5.0)
        assert q.decayed_sum() == pytest.approx(5.0)

    def test_gamma_one_is_plain_sum(self):
        q = MetaLossReplayQueue(length=3, gamma=1.0)
        for v in (1.0, 2.0, 3.0):
            q.push(v)
        assert q.decayed_sum() == pytest.approx(6.0)


class TestDiagnostics:
    def test_occupancy_fills_then_saturates(self):
        q = MetaLossReplayQueue(length=4, gamma=0.9)
        assert q.occupancy == 0.0
        expected = [0.25, 0.5, 0.75, 1.0, 1.0, 1.0]
        for value in expected:
            q.push(1.0)
            assert q.occupancy == pytest.approx(value)

    def test_decay_mass_empty_queue(self):
        assert MetaLossReplayQueue(length=3, gamma=0.9).decay_mass() == 0.0

    def test_decay_mass_partial_and_full(self):
        gamma = 0.5
        q = MetaLossReplayQueue(length=3, gamma=gamma)
        q.push(1.0)
        assert q.decay_mass() == pytest.approx(1.0)
        q.push(1.0)
        assert q.decay_mass() == pytest.approx(1.0 + gamma)
        q.push(1.0)
        q.push(1.0)  # saturated: mass stops growing
        assert q.decay_mass() == pytest.approx(1.0 + gamma + gamma**2)

    def test_decay_mass_bounds_decayed_sum(self):
        """For constant unit losses the decayed sum equals the decay mass."""
        q = MetaLossReplayQueue(length=5, gamma=0.8)
        for _ in range(3):
            q.push(1.0)
        assert q.decayed_sum() == pytest.approx(q.decay_mass())


class TestValidation:
    def test_bad_length(self):
        with pytest.raises(ValueError):
            MetaLossReplayQueue(length=0, gamma=0.9)

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            MetaLossReplayQueue(length=2, gamma=0.0)
        with pytest.raises(ValueError):
            MetaLossReplayQueue(length=2, gamma=1.5)

    def test_len_and_repr(self):
        q = MetaLossReplayQueue(length=4, gamma=0.9)
        assert len(q) == 4
        assert "MetaLossReplayQueue" in repr(q)


class TestQueueProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=30),
        st.integers(1, 8),
        st.floats(0.1, 1.0),
    )
    def test_decayed_sum_bounds(self, losses, length, gamma):
        """0 <= decayed sum <= max(loss) * sum of weights."""
        q = MetaLossReplayQueue(length=length, gamma=gamma)
        for v in losses:
            q.push(v)
        weight_total = sum(gamma**k for k in range(length))
        assert 0.0 <= q.decayed_sum() <= max(losses) * weight_total + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1,
                    max_size=30), st.integers(1, 8))
    def test_queue_holds_last_l_values(self, losses, length):
        q = MetaLossReplayQueue(length=length, gamma=0.9)
        for v in losses:
            q.push(v)
        expected = ([0.0] * length + losses)[-length:]
        np.testing.assert_allclose(q.values, expected)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 8), st.floats(0.1, 1.0), st.floats(0.5, 10.0))
    def test_warmup_undercounts_first_pushes(self, length, gamma, loss):
        """During the first L-1 pushes the zero-initialised slots make the
        decayed sum fall strictly short of its steady-state value — the
        warm-up under-count of Algorithm 2."""
        warm_value = loss * sum(gamma**k for k in range(length))
        q = MetaLossReplayQueue(length=length, gamma=gamma)
        for k in range(1, length):
            q.push(loss)
            partial = loss * sum(gamma**j for j in range(k))
            assert q.decayed_sum() == pytest.approx(partial)
            assert q.decayed_sum() < warm_value
            assert q.occupancy < 1.0
        q.push(loss)
        assert q.occupancy == 1.0
        assert q.decayed_sum() == pytest.approx(warm_value)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1,
                    max_size=30), st.integers(1, 8))
    def test_gamma_one_sums_last_l_losses(self, losses, length):
        """gamma = 1 weights every slot equally (Table IV's worst row)."""
        q = MetaLossReplayQueue(length=length, gamma=1.0)
        for v in losses:
            q.push(v)
        assert q.decayed_sum() == pytest.approx(
            sum(losses[-length:]), abs=1e-9
        )

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1,
                    max_size=30), st.integers(1, 8), st.floats(0.1, 1.0))
    def test_decayed_sum_matches_explicit_formula(self, losses, length,
                                                  gamma):
        """Eq. 9 against an independent reference: Σ_{i=1..L} γ^{L-i} H[i]
        with the queue contents reconstructed from the raw push sequence."""
        q = MetaLossReplayQueue(length=length, gamma=gamma)
        for v in losses:
            q.push(v)
        h = ([0.0] * length + losses)[-length:]
        expected = sum(
            gamma ** (length - i) * h[i - 1] for i in range(1, length + 1)
        )
        assert q.decayed_sum() == pytest.approx(expected, abs=1e-9)
