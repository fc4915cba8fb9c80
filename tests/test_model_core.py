import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsgap.model_core import (
    DataSummary,
    Hyperparams,
    Shrinkage,
    summarize,
)
from scalar_chain import ThetaStats


class TestSummarize:
    def test_hand_values_simple(self):
        d = summarize([1.0, 2.0, 3.0], 1)
        assert d.n == 3 and d.r == 1
        assert d.y_bar == pytest.approx(2.0)
        assert d.delta == pytest.approx(2.0)

    def test_constant_data_has_zero_spread(self):
        d = summarize([4.2] * 10, 1)
        assert d.delta == 0.0 and d.delta_prime == 0.0

    def test_hand_values_replicated(self):
        d = summarize([[0.0, 0.0], [2.0, 2.0]], 2)
        assert d.y_bar == pytest.approx(1.0)
        assert d.group_means == pytest.approx([0.0, 2.0])
        assert d.delta_prime == pytest.approx(2.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=50)
        d1 = summarize(y, 1)
        d2 = summarize(rng.permutation(y), 1)
        assert d1.y_bar == pytest.approx(d2.y_bar)
        assert d1.delta == pytest.approx(d2.delta)

        m = rng.normal(size=(6, 4))
        d3 = summarize(m, 4)
        shuffled = m[rng.permutation(6)][:, rng.permutation(4)]
        d4 = summarize(shuffled, 4)
        assert d3.y_bar == pytest.approx(d4.y_bar)
        assert d3.delta == pytest.approx(d4.delta)
        assert d3.delta_prime == pytest.approx(d4.delta_prime)
        assert sorted(d3.group_means) == pytest.approx(sorted(d4.group_means))

    def test_errors(self):
        with pytest.raises(ValueError):
            summarize([], 1)
        with pytest.raises(ValueError):
            summarize([1.0], 1)
        with pytest.raises(ValueError):
            summarize([[1.0, 2.0], [3.0]], 2)
        with pytest.raises(ValueError):
            summarize([[1.0, 2.0, 3.0]] * 4, 2)
        with pytest.raises(ValueError, match="row 3"):
            summarize([1.0, 2.0, math.nan, 4.0], 1)
        with pytest.raises(ValueError, match="row 1"):
            summarize([math.inf, 2.0], 1)
        with pytest.raises(ValueError, match="row 2"):
            summarize([[1.0, 2.0], [3.0, -math.inf], [math.nan, 0.0]], 2)

    @pytest.mark.parametrize("y, r", [
        ([1e308, -1e308, 1.5e308, -1.2e308, 0.0], 1),  # finite mean, spread overflows
        ([1.5e308, 1.5e308, 1e308], 1),  # the sum behind the mean overflows
        ([[1e308, -1e308], [-1e308, 1e308]], 2),  # delta overflows, delta_prime does not
    ])
    def test_overflowing_summary_is_rejected_without_warning(self, y, r):
        with np.errstate(all="raise"), pytest.raises(ValueError, match="overflows a double"):
            summarize(y, r)


# Data on a dyadic grid: integers up to 2^20 times 2^k.  Sums of such values
# are exact in a double, so a shift by a grid value moves every observation
# exactly and the checks below measure summarize, not the input's rounding.
_grid_data = st.tuples(
    st.lists(st.integers(-2**20, 2**20), min_size=2, max_size=300),
    st.integers(-20, 20),
)


class TestSummarizeProperties:
    @settings(deadline=None)
    @given(_grid_data, st.randoms(use_true_random=False))
    def test_permutation_leaves_the_summary_unchanged(self, data, random):
        values, k = data
        y = np.array(values, dtype=float) * 2.0**k
        shuffled = y.copy()
        random.shuffle(shuffled)
        d, e = summarize(y, 1), summarize(shuffled, 1)
        assert e.n == d.n
        assert e.y_bar == pytest.approx(d.y_bar, rel=1e-12, abs=1e-12 * np.abs(y).max())
        assert e.delta == pytest.approx(d.delta, rel=1e-12)

    @settings(deadline=None)
    @given(_grid_data, st.integers(-2**20, 2**20))
    def test_shift_moves_only_the_mean(self, data, c):
        values, k = data
        y = np.array(values, dtype=float) * 2.0**k
        shift = c * 2.0**k
        d, e = summarize(y, 1), summarize(y + shift, 1)
        scale = np.abs(y).max() + abs(shift)
        assert e.y_bar == pytest.approx(d.y_bar + shift, rel=1e-12, abs=1e-12 * scale)
        assert e.delta == pytest.approx(d.delta, rel=1e-9)


class TestTypes:
    def test_hyperparams_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(a=0.0, b=1.0, V=1.0)
        with pytest.raises(ValueError):
            Hyperparams(a=1.0, b=1.0, V=-1.0)
        with pytest.raises(ValueError):
            Shrinkage(w=0.0, z=0.0)
        assert Hyperparams(1.0, 1.0, 4.0).U == pytest.approx(0.25)

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            ThetaStats(0.0, -1.0)
        with pytest.raises(ValueError):
            DataSummary(n=1, r=1, y_bar=0.0, group_means=np.zeros(1), delta=0.0, delta_prime=0.0)
        with pytest.raises(ValueError):
            DataSummary(n=3, r=1, y_bar=0.0, group_means=np.zeros(2), delta=0.0, delta_prime=0.0)
