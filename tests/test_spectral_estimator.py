import math

import numpy as np
import pytest

from gibbsgap.spectral_estimator import (
    Ar1TraceChain,
    Status,
    ar1_matched_proposal_sd,
    ar1_oracle_exact,
    estimate,
    u_from_s,
)


class _ConstantWeights:
    """Degenerate spec: every weight equals `value`."""

    def __init__(self, value):
        self.value = value

    def draw_log_weights(self, l, size, rng):
        return np.full(size, math.log(self.value))


class _LogWeights:
    """Fake spec whose first log weight is `first` and the rest `rest`."""

    def __init__(self, first, rest):
        self.first, self.rest = first, rest

    def draw_log_weights(self, l, size, rng):
        out = np.full(size, self.rest)
        out[0] = self.first
        return out


class TestOracleExact:
    def test_hand_values(self):
        s, u = ar1_oracle_exact(0.5, 2)
        assert s == pytest.approx(4.0 / 3.0)
        assert u == pytest.approx(math.sqrt(1.0 / 3.0))
        s, u = ar1_oracle_exact(0.9, 1)
        assert s == pytest.approx(10.0)
        assert u == pytest.approx(9.0)
        _, u = ar1_oracle_exact(0.25, 2)
        assert u == pytest.approx(0.25 / math.sqrt(1 - 0.0625))

    def test_bound_approaches_second_eigenvalue(self):
        _, u = ar1_oracle_exact(0.5, 50)
        assert abs(u - 0.5) < 1e-6

    def test_domain(self):
        with pytest.raises(ValueError):
            ar1_oracle_exact(1.0, 2)
        with pytest.raises(ValueError):
            ar1_oracle_exact(0.0, 2)
        with pytest.raises(ValueError):
            ar1_oracle_exact(0.5, 0)


class TestUFromS:
    def test_hand_values(self):
        u, _ = u_from_s(4.0 / 3.0, 0.0, 2)
        assert u == pytest.approx(0.5773502691896258)
        u, _ = u_from_s(2.0, 0.0, 1)
        assert u == pytest.approx(1.0)

    def test_delta_method_se(self):
        u, use = u_from_s(4.0 / 3.0, 0.01, 2)
        assert use == pytest.approx(u * 0.01 / (2 * (1.0 / 3.0)))

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            u_from_s(1.0, 0.1, 2)
        with pytest.raises(ValueError):
            u_from_s(0.5, 0.1, 2)


class TestEstimate:
    def test_ar1_recovers_exact_sum(self):
        spec = Ar1TraceChain(0.5, ar1_matched_proposal_sd(0.5, 2))
        est = estimate(spec, 2, 100_000, np.random.default_rng(0))
        s_exact, _ = ar1_oracle_exact(0.5, 2)
        assert est.status is Status.OK
        assert abs(est.s_hat - s_exact) < 3 * est.s_se

    @pytest.mark.parametrize("l", [1, 2, 5])
    def test_ar1_grid_rho_half(self, l):
        spec = Ar1TraceChain(0.5, ar1_matched_proposal_sd(0.5, l))
        est = estimate(spec, l, 100_000, np.random.default_rng(l))
        s_exact, _ = ar1_oracle_exact(0.5, l)
        assert abs(est.s_hat - s_exact) < 3 * est.s_se

    def test_u_bound_value(self):
        spec = Ar1TraceChain(0.25, ar1_matched_proposal_sd(0.25, 2))
        est = estimate(spec, 2, 100_000, np.random.default_rng(3))
        _, u_exact = ar1_oracle_exact(0.25, 2)
        assert abs(est.u_hat - u_exact) < 3 * est.u_se

    def test_constant_weights_degenerate(self):
        est = estimate(_ConstantWeights(3.0), 2, 1000, np.random.default_rng(0))
        assert est.s_hat == pytest.approx(3.0, rel=1e-12)
        assert est.s_se == 0.0
        assert est.status is Status.OK
        est = estimate(_ConstantWeights(0.5), 2, 1000, np.random.default_rng(0))
        assert est.status is Status.S_NOT_ABOVE_ONE
        assert est.u_hat is None and est.u_se is None

    def test_fixed_seed_reproducible(self):
        spec = Ar1TraceChain(0.5, 1.5)
        a = estimate(spec, 2, 50_000, np.random.default_rng(5))
        b = estimate(spec, 2, 50_000, np.random.default_rng(5))
        assert a == b

    def test_worker_count_never_changes_numbers(self):
        spec = Ar1TraceChain(0.5, 1.5)
        serial = estimate(spec, 2, 50_000, np.random.default_rng(6), workers=1)
        for workers in (2, 4, 8):
            parallel = estimate(spec, 2, 50_000, np.random.default_rng(6), workers=workers)
            assert parallel.s_hat == serial.s_hat
            assert parallel.s_se == serial.s_se
            assert parallel.u_hat == serial.u_hat
            assert parallel.max_weight_share == serial.max_weight_share

    def test_dominant_weight_trips_variance_diagnostic(self):
        # One weight carries essentially the whole sum.
        est = estimate(_LogWeights(60.0, 0.0), 1, 1000, np.random.default_rng(8))
        assert est.status is Status.HIGH_VARIANCE
        assert est.max_weight_share > 0.99

    def test_nan_weight_is_nonfinite_not_below_one(self):
        est = estimate(_LogWeights(math.nan, 1.0), 2, 1000, np.random.default_rng(0))
        assert math.isnan(est.s_hat)
        assert est.status is Status.NONFINITE_WEIGHTS
        assert est.u_hat is None and est.u_se is None

    def test_overflowing_mean_saturates_to_inf(self):
        # exp(720)/1000 and exp(800) both exceed the largest double.
        spike = estimate(_LogWeights(720.0, 0.0), 2, 1000, np.random.default_rng(0))
        flat = estimate(_LogWeights(800.0, 800.0), 2, 1000, np.random.default_rng(0))
        for est in (spike, flat):
            assert est.s_hat == math.inf
            assert est.status is Status.NONFINITE_WEIGHTS
            assert est.u_hat is None and est.u_se is None
        assert flat.s_se == 0.0

    def test_overflowing_variance_is_infinite_se(self):
        # exp(400)/1000 is finite, its variance ~exp(800)/1000 is not.
        est = estimate(_LogWeights(400.0, 0.0), 2, 1000, np.random.default_rng(0))
        assert math.isfinite(est.s_hat) and est.s_se == math.inf
        assert est.status is Status.INFINITE_SE
        assert est.u_hat == pytest.approx((est.s_hat - 1.0) ** 0.5)

    def test_overdispersed_proposal_fires_diagnostic_more_often(self):
        # A proposal vastly wider than the kernel diagonal starves the
        # importance sum: near-origin draws carry everything.
        matched = ar1_matched_proposal_sd(0.5, 1)
        fires = {1.0: 0, 2000.0: 0}
        for mult in fires:
            for seed in range(10):
                est = estimate(
                    Ar1TraceChain(0.5, matched * mult), 1, 500, np.random.default_rng(seed)
                )
                fires[mult] += est.status is Status.HIGH_VARIANCE
        assert fires[2000.0] > fires[1.0]
        assert fires[2000.0] >= 8

    def test_preconditions(self):
        spec = Ar1TraceChain(0.5, 1.0)
        with pytest.raises(ValueError):
            estimate(spec, 0, 100, np.random.default_rng(0))
        with pytest.raises(ValueError):
            estimate(spec, 1, 1, np.random.default_rng(0))


class TestBoundChainProperties:
    def test_u_sequence_decreases_within_noise(self):
        rho = 0.5
        results = []
        for i, l in enumerate([1, 2, 3, 4, 5]):
            spec = Ar1TraceChain(rho, ar1_matched_proposal_sd(rho, l))
            results.append(estimate(spec, l, 50_000, np.random.default_rng(40 + i)))
        for prev, nxt in zip(results, results[1:]):
            assert nxt.u_hat <= prev.u_hat + 3 * (prev.u_se + nxt.u_se)

    @pytest.mark.parametrize("rho", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("l", [1, 2, 5])
    def test_u_stays_above_true_second_eigenvalue(self, rho, l):
        spec = Ar1TraceChain(rho, ar1_matched_proposal_sd(rho, l))
        est = estimate(spec, l, 50_000, np.random.default_rng(int(rho * 100) + l))
        assert est.u_hat + 3 * est.u_se >= rho
