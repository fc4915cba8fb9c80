import math

import numpy as np
import pytest

from gibbsgap.distributions import InverseGamma, Normal
from gibbsgap.model_core import (
    DataSummary,
    Hyperparams,
    Shrinkage,
    ThetaStats,
    cond_A_given_theta,
    cond_mu_given_theta_A,
    noncentrality,
    summarize,
)


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


class TestSimpleConditionals:
    h = Hyperparams(a=2.0, b=1.0, V=1.0)

    def test_variance_conditional_hand_values(self):
        spec = cond_A_given_theta(ThetaStats(0.0, 4.0), self.h, 3)
        assert spec == InverseGamma(shape=3.0, scale=3.0)
        spec = cond_A_given_theta(ThetaStats(1.0, 0.0), self.h, 5)
        assert spec == InverseGamma(shape=self.h.a + 2.0, scale=self.h.b)
        spec = cond_A_given_theta(ThetaStats(0.0, 2.0), Hyperparams(0.5, 2.0, 1.0), 2)
        assert spec == InverseGamma(shape=1.0, scale=3.0)

    def test_location_conditional(self):
        assert cond_mu_given_theta_A(ThetaStats(1.5, 0.0), 2.0, 4) == Normal(1.5, 0.5)
        v_prev = math.inf
        for n in (1, 10, 100, 1000):
            v = cond_mu_given_theta_A(ThetaStats(0.0, 0.0), 3.0, n).variance
            assert v < v_prev
            v_prev = v

    def test_noncentrality_values(self):
        d = summarize([0.0, 2.0], 1)  # delta = 2
        h = Hyperparams(1.0, 1.0, 1.0)
        assert noncentrality(1.0, h, d) == pytest.approx(2.0 / 4.0)
        d4 = DataSummary(n=2, r=1, y_bar=0.0, group_means=np.zeros(2), delta=4.0, delta_prime=4.0)
        assert noncentrality(1.0, h, d4) == pytest.approx(1.0)
        d8 = DataSummary(n=2, r=1, y_bar=0.0, group_means=np.zeros(2), delta=8.0, delta_prime=8.0)
        assert noncentrality(3.0, h, d8) == pytest.approx(3.0)
        d0 = DataSummary(n=2, r=1, y_bar=0.0, group_means=np.zeros(2), delta=0.0, delta_prime=0.0)
        assert noncentrality(5.0, h, d0) == 0.0

    def test_maps_are_pure(self):
        st = ThetaStats(0.7, 1.3)
        assert cond_A_given_theta(st, self.h, 4) == cond_A_given_theta(st, self.h, 4)


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
