import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from gibbsgap.data_io import synthetic_summary
from gibbsgap.model_core import DataSummary, Hyperparams, Shrinkage, Workspace
from gibbsgap.replicate_chains import (
    _displacement_sq,
    _draw_stats,
    _pair_sq_dists,
    _span,
    beta_map,
    contraction_check,
    estimate_cx,
    eta_map,
    gamma_flat,
    gamma_shrink,
    shrink_location,
    start_state,
    wasserstein_bound,
)

H111 = Hyperparams(a=1.0, b=1.0, V=1.0)  # U = 1


def draw_noise(n: int, h: Hyperparams, size: int, rng: np.random.Generator):
    """`size` full noise elements for the full-vector oracle: each
    J ~ Gamma(a + n/2, rate 1) and n+1 iid standard normals, returned as j
    of shape (size,) and z of shape (size, n+1)."""
    j = rng.gamma(h.a + n / 2.0, 1.0, size)
    z = rng.standard_normal((size, n + 1))
    return j, z


class TestEtaMap:
    def test_fixed_noise_plugs_through(self):
        # Noise pinned at J = a + n/2 (its mean) and zero normals, zero state,
        # all group means equal: location lands on sqrt(n)*y_bar, effects on 0.
        n, r, y_bar = 6, 2, 0.9
        d = synthetic_summary(n, r, delta_prime=0.0, y_bar=y_bar)
        out = eta_map(np.zeros(n + 1), H111.a + n / 2.0, np.zeros(n + 1), d, H111)
        assert out[0] == pytest.approx(math.sqrt(n) * y_bar, abs=1e-12)
        assert np.allclose(out[1:], 0.0, atol=1e-12)

    def test_deterministic_given_noise(self):
        n = 5
        d = synthetic_summary(n, 3, delta_prime=1.0, y_bar=0.2)
        state = np.linspace(-1, 1, n + 1)
        j, z = draw_noise(n, H111, 3, np.random.default_rng(1))
        a = eta_map(state, j, z, d, H111)
        b = eta_map(state, j, z, d, H111)
        assert a.shape == (3, n + 1)
        assert np.array_equal(a, b)
        # A batch of noise elements applies each one separately.
        assert np.array_equal(a[1], eta_map(state, j[1], z[1], d, H111))

    def test_location_is_unbiased(self):
        n = 8
        d = synthetic_summary(n, 2, delta_prime=0.5, y_bar=1.1)
        j, z = draw_noise(n, H111, 100_000, np.random.default_rng(2))
        draws = eta_map(np.ones(n + 1), j, z, d, H111)[:, 0]
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - math.sqrt(n) * 1.1) < 3 * se

    def test_one_step_law_matches_sequential_conditionals(self):
        """Map output at a fixed state vs sampling the conditionals in
        sequence (precision, then location, then effects)."""
        n, r = 10, 3
        d = synthetic_summary(n, r, delta_prime=2.5, y_bar=0.7)
        h = Hyperparams(a=1.5, b=2.0, V=2.0)
        state = np.linspace(-1, 1, n + 1)
        n_draws = 100_000
        outs = eta_map(state, *draw_noise(n, h, n_draws, np.random.default_rng(5)), d, h)

        rng2 = np.random.default_rng(6)
        rate = h.b + 0.5 * float(np.sum(state[1:] ** 2))
        B = rng2.gamma(h.a + n / 2.0, 1.0 / rate, n_draws)
        rU = r * h.U
        eta0 = math.sqrt(n) * d.y_bar + np.sqrt((B + rU) / (rU * B)) * rng2.standard_normal(n_draws)
        rest = (rU / (B + rU))[:, None] * (
            d.group_means[None, :] - eta0[:, None] / math.sqrt(n)
        ) + rng2.standard_normal((n_draws, n)) / np.sqrt(B + rU)[:, None]
        seq = np.concatenate([eta0[:, None], rest], axis=1)

        assert sps.ks_2samp(outs[:, 0], seq[:, 0]).pvalue > 1e-3
        assert sps.ks_2samp((outs**2).sum(1), (seq**2).sum(1)).pvalue > 1e-3

    def test_shape_validation(self):
        d = synthetic_summary(4, 1, 0.0)
        with pytest.raises(ValueError, match="state"):
            eta_map(np.zeros(3), 1.0, np.zeros(5), d, H111)
        with pytest.raises(ValueError, match="noise"):
            eta_map(np.zeros(5), 1.0, np.zeros(3), d, H111)

    def test_state_and_noise_validation(self):
        d = synthetic_summary(4, 1, 0.0)
        with pytest.raises(ValueError, match="finite"):
            eta_map(np.array([0.0, np.nan, 0.0, 0.0, 0.0]), 1.0, np.zeros(5), d, H111)
        with pytest.raises(ValueError, match="J"):
            eta_map(np.zeros(5), np.array([1.0, 0.0]), np.zeros((2, 5)), d, H111)


class TestBetaMap:
    HS = Hyperparams(a=1.0, b=1.0, V=1.0, shrinkage=Shrinkage(w=0.7, z=4.0))

    def test_fixed_noise_plugs_through(self):
        n, r, y_bar = 4, 2, 0.7
        d = synthetic_summary(n, r, delta_prime=0.0, y_bar=y_bar)
        out = beta_map(np.zeros(n), 3.0, np.zeros(n + 1), d, self.HS)
        # w == y_bar and beta == 0 make the location land exactly on y_bar,
        # so every effect update is 0.
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_prior_dominant_location_limit(self):
        n, r = 6, 2
        d = synthetic_summary(n, r, delta_prime=0.0, y_bar=0.3)
        h = Hyperparams(1.0, 1.0, 1.0, shrinkage=Shrinkage(w=5.0, z=1e12))
        rng = np.random.default_rng(3)
        for _ in range(100):
            mu = shrink_location(0.4, float(rng.standard_normal()), d, h)
            assert abs(mu - 5.0) < 1e-4
        # Hand values: n = 2, r = 3, U = 0.5 give nrU = 3; with z = 2 the
        # location is Normal((3*(y_bar - beta_bar) + 2*w)/5, 1/5).
        d = DataSummary(r=3, y_bar=1.0, group_means=np.ones(2), delta=0.0, delta_prime=0.0)
        h = Hyperparams(1.0, 1.0, 2.0, shrinkage=Shrinkage(w=0.4, z=2.0))
        at_zero = shrink_location(0.2, 0.0, d, h)
        assert at_zero == pytest.approx((3.0 * 0.8 + 2.0 * 0.4) / 5.0)
        assert shrink_location(0.2, 1.0, d, h) - at_zero == pytest.approx(math.sqrt(0.2))
        # z = 1e12: the prior mean takes over and the noise scale vanishes.
        d = DataSummary(r=2, y_bar=0.3, group_means=np.full(5, 0.3), delta=0.0, delta_prime=0.0)
        h = Hyperparams(1.0, 1.0, 1.0, shrinkage=Shrinkage(w=7.0, z=1e12))
        at_zero = shrink_location(0.3, 0.0, d, h)
        assert at_zero == pytest.approx(7.0, abs=1e-9)
        assert (shrink_location(0.3, 1.0, d, h) - at_zero) ** 2 < 1e-11

    def test_missing_shrinkage_rejected(self):
        d = synthetic_summary(3, 1, 0.0)
        with pytest.raises(ValueError, match="shrinkage"):
            beta_map(np.zeros(3), 1.0, np.zeros(4), d, H111)

    def test_deterministic_given_noise(self):
        n = 4
        d = synthetic_summary(n, 2, delta_prime=0.3, y_bar=0.1)
        state = np.array([0.1, -0.2, 0.3, 0.0])
        j, z = draw_noise(n, self.HS, 2, np.random.default_rng(9))
        assert np.array_equal(beta_map(state, j, z, d, self.HS), beta_map(state, j, z, d, self.HS))

    def test_shape_validation(self):
        d = synthetic_summary(4, 1, 0.0)
        with pytest.raises(ValueError, match="state"):
            beta_map(np.zeros(5), 1.0, np.zeros(5), d, self.HS)


class TestRates:
    def test_flat_hand_values(self):
        d = synthetic_summary(2, 1, delta_prime=0.0)
        assert gamma_flat(2, 1, d, H111) == pytest.approx(math.sqrt(6.5), rel=1e-12)
        assert gamma_flat(100, 10**4, d, H111) == pytest.approx(math.sqrt(0.115), rel=1e-12)

    def test_flat_monotone_in_replicates(self):
        d = synthetic_summary(10, 1, delta_prime=3.0)
        values = [gamma_flat(10, r, d, H111) for r in (1, 2, 5, 10, 100, 1000)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_flat_growing_replicate_regime(self):
        # r = n^2 with delta_prime = n: decreasing in n and small at n=1000.
        vals = []
        for n in (10, 100, 1000):
            d = synthetic_summary(n, n**2, delta_prime=float(n))
            vals.append(gamma_flat(n, n**2, d, H111))
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.15

    def test_shrink_hand_value(self):
        d = synthetic_summary(2, 1, delta_prime=0.0, y_bar=0.4)
        h = Hyperparams(1.0, 1.0, 1.0, shrinkage=Shrinkage(w=0.4, z=1.0))
        assert gamma_shrink(2, 1, d, h) == pytest.approx(math.sqrt(323.0), rel=1e-12)

    def test_shrink_centered_prior_drops_mismatch_term(self):
        n, r = 4, 3
        d = synthetic_summary(n, r, delta_prime=1.0, y_bar=0.8)
        h_match = Hyperparams(1.0, 1.0, 1.0, shrinkage=Shrinkage(w=0.8, z=2.0))
        got = gamma_shrink(n, r, d, h_match)
        a, b, U = 1.0, 1.0, 1.0
        manual = math.sqrt(
            (2 * a + n + 2) ** 2
            / 4.0
            * (4 * d.delta_prime / (b**3 * (r * U) ** 2) + 32 / (b**2 * (r * U) ** 2) + 2 / (b**3 * (r * U) ** 3))
            + 4 * n**2 * (r * U) ** 2 / 2.0**2
            + n / (2 * b * r * U)
        )
        assert got == pytest.approx(manual, rel=1e-14)

    def test_shrink_large_precision_drops_z_term(self):
        n, r = 4, 3
        d = synthetic_summary(n, r, delta_prime=1.0, y_bar=0.0)
        tiny = gamma_shrink(n, r, d, Hyperparams(1.0, 1.0, 1.0, shrinkage=Shrinkage(0.0, 1e300)))
        a, b, U = 1.0, 1.0, 1.0
        no_z = math.sqrt(
            (2 * a + n + 2) ** 2
            / 4.0
            * (4 / (b**3 * (r * U) ** 2) + 32 / (b**2 * (r * U) ** 2) + 2 / (b**3 * (r * U) ** 3))
            + n / (2 * b * r * U)
        )
        assert tiny == pytest.approx(no_z, rel=1e-12)

    def test_shrink_dominance_regime_contracts(self):
        # z = (nr)^2 with r = n^2 pushes the rate below 1 from n = 1000 on.
        for n in (1000, 2000):
            r = n**2
            d = synthetic_summary(n, r, delta_prime=float(n))
            h = Hyperparams(1.0, 1.0, 1.0, shrinkage=Shrinkage(w=0.0, z=float(n * r) ** 2))
            assert gamma_shrink(n, r, d, h) < 1.0

    def test_rates_equal_their_formulas_in_python_floats(self):
        # The rates compute on np.float64 copies of their inputs; written out
        # here in Python floats, each must agree bit for bit.
        hypers = [(1.0, 1.0, 1.0), (0.7, 2.9, 1 / 3.7), (1.7, 0.29, 1 / 0.37)]
        shrinkages = [(1.3, 2.5), (0.0, 1e6)]
        for n, r, (a, b, V), dp, y_bar in itertools.product(
            (2, 37, 1000), (1, 7, 10**4), hypers, (0.0, 5.5, 37.0), (0.3, -0.3)
        ):
            d = synthetic_summary(n, r, delta_prime=dp, y_bar=y_bar)
            U = 1.0 / V
            flat = math.sqrt(
                (dp / n) * n * (2 * a + n) * (2 * a + n + 2) / (2.0 * (r * U) ** 2 * b**3)
                + n / (2.0 * b * r * U)
                + 11.0 / (2.0 * a + n - 2.0)
            )
            assert gamma_flat(n, r, d, Hyperparams(a, b, V)) == flat, (n, r, a, b, V, dp)
            for w, z in shrinkages:
                r2U2 = (r * U) ** 2
                inner = (4.0 * dp / (b**3 * r2U2) + 32.0 / (b**2 * r2U2)
                         + 16.0 * n * (w - y_bar) ** 2 / (b**3 * r2U2) + 2.0 / (b**3 * (r * U) ** 3))
                shrink = math.sqrt((2 * a + n + 2) ** 2 / 4.0 * inner + (2.0 * n * r * U / z) ** 2
                                   + n / (2.0 * b * r * U))
                h = Hyperparams(a, b, V, shrinkage=Shrinkage(w, z))
                assert gamma_shrink(n, r, d, h) == shrink, (n, r, a, b, V, dp, y_bar, w, z)

    def test_rates_unclamped_above_one(self):
        d = synthetic_summary(2, 1, delta_prime=0.0)
        assert gamma_flat(2, 1, d, H111) > 1.0


class TestContractionCheck:
    def test_coupling_identity_for_equal_states(self):
        n = 6
        d = synthetic_summary(n, 10, delta_prime=0.0)
        state = np.linspace(0, 1, n + 1)
        j, z = draw_noise(n, H111, 4, np.random.default_rng(0))
        a = eta_map(state, j, z, d, H111)
        b = eta_map(state.copy(), j, z, d, H111)
        assert np.array_equal(a, b)

    def test_degenerate_pairs_are_skipped(self):
        n = 4
        d = synthetic_summary(n, 10, delta_prime=0.0)
        fixed = np.ones(n + 1)
        report = contraction_check(
            eta_map, n, 10, d, H111, num_pairs=5, reps_per_pair=10,
            rng=np.random.default_rng(1), pair_sampler=lambda g: (fixed, fixed),
        )
        assert report.pairs_tested == 0
        assert report.violations == 0

    def test_flat_chain_contracts_in_large_replicate_regime(self):
        n, r = 20, 10**4
        d = synthetic_summary(n, r, delta_prime=0.0)
        gamma = gamma_flat(n, r, d, H111)
        assert gamma < 1.0
        report = contraction_check(
            eta_map, n, r, d, H111, num_pairs=20, reps_per_pair=2000,
            rng=np.random.default_rng(2),
        )
        assert report.pairs_tested == 20
        assert report.violations == 0
        assert report.gamma_empirical_mean <= gamma
        assert "certificate" in report.note

    def test_shrinkage_chain_checks_run(self):
        n, r = 10, 400
        d = synthetic_summary(n, r, delta_prime=0.0)
        h = Hyperparams(1.0, 1.0, 1.0, shrinkage=Shrinkage(w=0.0, z=float(n * r) ** 2))
        report = contraction_check(
            beta_map, n, r, d, h, num_pairs=10, reps_per_pair=500,
            rng=np.random.default_rng(3),
        )
        assert report.pairs_tested == 10
        assert report.gamma_empirical_mean >= 0.0

    def test_unknown_map_rejected(self):
        d = synthetic_summary(5, 2, 0.0)
        with pytest.raises(ValueError, match="eta_map or beta_map"):
            contraction_check(gamma_flat, 5, 2, d, H111, 2, 2, np.random.default_rng(0))

    def test_summary_mismatch_rejected(self):
        d = synthetic_summary(5, 2, 0.0)
        with pytest.raises(ValueError):
            contraction_check(eta_map, 6, 2, d, H111, 2, 2, np.random.default_rng(0))


HS = Hyperparams(a=1.5, b=2.0, V=0.5, shrinkage=Shrinkage(w=0.2, z=3.0))
MAPS = [(eta_map, H111), (beta_map, HS)]


def _stats_of(z, q):
    """The statistics the compressed distances read, computed from full
    noise normals z (..., n+1) and a basis q of the span."""
    w = z[..., 1:] @ q
    rest = np.sum(np.square(z[..., 1:] - w @ q.T), axis=-1)
    return z[..., 0], w, rest


class TestCompressedCoupling:
    @pytest.mark.parametrize("map_fn, h", MAPS)
    @pytest.mark.parametrize("n", [2, 3, 10, 100])
    @pytest.mark.parametrize("dprime", [0.0, 1.5])
    def test_matches_full_vector_on_the_same_noise(self, map_fn, h, n, dprime):
        d = synthetic_summary(n, 7, delta_prime=dprime, y_bar=0.3)
        rng = np.random.default_rng(n)
        dim = start_state(map_fn, d).size
        j, z = draw_noise(n, h, 200, rng)
        x, y = rng.standard_normal(dim), 2.0 * rng.standard_normal(dim)

        q, p = _span(np.column_stack([np.ones(n), d.group_means]))
        assert q.shape[1] == (1 if dprime == 0.0 else 2)
        got = _pair_sq_dists(map_fn, x, y, (j, *_stats_of(z, q)), p, d, h)
        full = np.sum(np.square(map_fn(x, j, z, d, h) - map_fn(y, j, z, d, h)), axis=-1)
        np.testing.assert_allclose(got, full, rtol=1e-8)

        # c(x) at a state off the start state: the span takes x's effects.
        effects = x[1:] if map_fn is eta_map else x
        q, p = _span(np.column_stack([np.ones(n), d.group_means, effects]))
        got = _displacement_sq(map_fn, x, (j, *_stats_of(z, q)), p, d, h)
        full = np.sum(np.square(x - map_fn(x, j, z, d, h)), axis=-1)
        np.testing.assert_allclose(got, full, rtol=1e-8)

    @pytest.mark.parametrize("map_fn, h", MAPS)
    @pytest.mark.parametrize("dprime", [0.0, 1.5])
    def test_exact_law_draws_match_full_vector_path(self, map_fn, h, dprime):
        """Exact-law statistics and full noise vectors, on independent
        streams, give the same mean ratio and c(x) within 4 combined SE."""
        n, pairs, reps = 10, 20, 1000
        d = synthetic_summary(n, 3, delta_prime=dprime, y_bar=0.3)
        g = np.random.default_rng(40)
        dim = start_state(map_fn, d).size
        x, y = g.standard_normal(dim), g.standard_normal(dim)

        report = contraction_check(map_fn, n, 3, d, h, num_pairs=pairs, reps_per_pair=reps,
                                   rng=np.random.default_rng(41), pair_sampler=lambda _: (x, y))
        j, z = draw_noise(n, h, pairs * reps, np.random.default_rng(42))
        ratios = np.linalg.norm(map_fn(x, j, z, d, h) - map_fn(y, j, z, d, h), axis=-1)
        ratios /= np.linalg.norm(x - y)
        se = math.hypot(report.gamma_empirical_ci_halfwidth / 1.96,
                        ratios.std(ddof=1) / math.sqrt(ratios.size))
        assert abs(report.gamma_empirical_mean - ratios.mean()) < 4 * se

        cx = estimate_cx(map_fn, x, d, h, pairs * reps, np.random.default_rng(43))
        dists = np.linalg.norm(x - map_fn(x, j, z, d, h), axis=-1)
        se = math.hypot(cx.se, dists.std(ddof=1) / math.sqrt(dists.size))
        assert abs(cx.mean - dists.mean()) < 4 * se


class TestWorkspaceKernels:
    @pytest.mark.parametrize("n, k", [(10, 2), (2, 2)])
    def test_draws_are_numpys_samplers(self, n, k):
        """J, z_0, w and the remainder equal numpy's gamma(shape, 1.0),
        standard_normal and chisquare bit for bit, and leave the stream
        where they leave it (k = n draws no remainder)."""
        h = Hyperparams(a=1.5, b=2.0, V=0.5)
        mine, ref = np.random.default_rng(9), np.random.default_rng(9)
        j, z0, w, rest = _draw_stats(n, k, h, 100, mine, Workspace())
        assert np.array_equal(j, ref.gamma(h.a + n / 2.0, 1.0, 100))
        assert np.array_equal(z0, ref.standard_normal(100))
        assert np.array_equal(w, ref.standard_normal((100, k)))
        assert np.array_equal(rest, ref.chisquare(n - k, 100) if n > k else np.zeros(100))
        assert mine.standard_normal() == ref.standard_normal()

    def test_reused_workspace_matches_fresh_ones(self):
        """One workspace carried across cells of other sizes and ranks gives
        the reports and c(x) a fresh workspace per call gives: n = 2 with
        spread group means is k = n, with no remainder; x off the start
        state makes the c(x) span rank 3 at n = 10 and 1000."""
        ws = Workspace()
        for map_fn, h in MAPS:
            for n, reps in [(1000, 300), (2, 50), (10, 200)]:
                for dprime in (0.0, 1.5):
                    d = synthetic_summary(n, 3, delta_prime=dprime, y_bar=0.3)
                    origin = start_state(map_fn, d)
                    x = origin + np.random.default_rng(n).standard_normal(origin.size)

                    def run(workspace):
                        return (
                            contraction_check(map_fn, n, 3, d, h, num_pairs=3, reps_per_pair=reps,
                                              rng=np.random.default_rng(7), workspace=workspace),
                            estimate_cx(map_fn, x, d, h, reps, np.random.default_rng(8), workspace=workspace),
                        )

                    assert run(ws) == run(None)

    @pytest.mark.parametrize("map_fn, h", [
        (eta_map, H111),
        (beta_map, Hyperparams(a=1.0, b=1.0, V=1.0, shrinkage=Shrinkage(w=0.0, z=1e14))),
    ])
    def test_steady_state_allocates_no_reps_length_array(self, map_fn, h):
        """With a warmed workspace, a pair check and a c(x) allocate only
        O(n) arrays (the states, the group means and mostly the span's SVD:
        ~76 KB at n = 1000), never one of reps.  The budget is in n, and
        one reps-length array alone would exceed it three times over."""
        n, r, reps = 1000, 10_000, 40_000
        d = synthetic_summary(n, r)
        ws = Workspace()

        def run():
            contraction_check(map_fn, n, r, d, h, num_pairs=2, reps_per_pair=reps,
                              rng=np.random.default_rng(0), workspace=ws)
            estimate_cx(map_fn, start_state(map_fn, d), d, h, reps, np.random.default_rng(1), workspace=ws)

        run()  # sizes the workspace's buffers
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = 100 * n
        assert reps * 8 > 3 * budget
        assert peak - base < budget, peak - base


@pytest.mark.parametrize("map_fn, y_bar", [
    *((eta_map, y) for y in (1e3, 1e10, 1e14, 1e17, 1e200)),
    *((beta_map, y) for y in (1e3, 1e10)),
])
def test_results_do_not_depend_on_y_bar(map_fn, y_bar):
    """Shifting y_bar, the group means, w and eta_0 (by sqrt(n)) together
    leaves both mappings' distances unchanged, so a check and c(x) at the
    start state equal those at y_bar = 0.  Computed at the caller's y_bar,
    rounding made the flat rate read 3.67 > gamma_formula at 1e17 and inf
    at 1e200."""
    n, r = 100, 10_000

    def run(y):
        d = synthetic_summary(n, r, y_bar=y)
        h = Hyperparams(a=1.0, b=1.0, V=1.0,
                        shrinkage=Shrinkage(w=y, z=float(n * r) ** 2) if map_fn is beta_map else None)
        report = contraction_check(map_fn, n, r, d, h, num_pairs=2, reps_per_pair=10_000,
                                   rng=np.random.default_rng(3))
        return report, estimate_cx(map_fn, start_state(map_fn, d), d, h, 10_000, np.random.default_rng(4))

    assert run(y_bar) == run(0.0)


class TestCx:
    def test_start_state(self):
        d = synthetic_summary(3, 2, delta_prime=0.0, y_bar=0.5)
        assert np.array_equal(start_state(eta_map, d), [math.sqrt(3) * 0.5, 0.0, 0.0, 0.0])
        assert np.array_equal(start_state(beta_map, d), np.zeros(3))
        with pytest.raises(ValueError, match="eta_map or beta_map"):
            start_state(gamma_flat, d)

    def test_nonnegative_and_deterministic(self):
        n = 5
        d = synthetic_summary(n, 3, delta_prime=0.0, y_bar=0.4)
        x = np.concatenate([[math.sqrt(n) * 0.4], np.zeros(n)])
        a = estimate_cx(eta_map, x, d, H111, 500, np.random.default_rng(4))
        b = estimate_cx(eta_map, x, d, H111, 500, np.random.default_rng(4))
        assert a.mean >= 0.0
        assert a == b

    def test_independent_estimates_agree(self):
        n = 5
        d = synthetic_summary(n, 3, delta_prime=0.0, y_bar=0.4)
        x = np.concatenate([[math.sqrt(n) * 0.4], np.zeros(n)])
        a = estimate_cx(eta_map, x, d, H111, 20_000, np.random.default_rng(5))
        b = estimate_cx(eta_map, x, d, H111, 20_000, np.random.default_rng(6))
        assert abs(a.mean - b.mean) < 4 * (a.se + b.se)

    def test_preconditions(self):
        d = synthetic_summary(5, 3, 0.0)
        with pytest.raises(ValueError):
            estimate_cx(eta_map, np.zeros(6), d, H111, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            estimate_cx(eta_map, np.zeros(4), d, H111, 10, np.random.default_rng(0))


class TestWassersteinBound:
    def test_hand_values(self):
        assert wasserstein_bound(1.0, 0.5, 3) == pytest.approx(0.25)
        assert wasserstein_bound(2.0, 0.5, 0) == pytest.approx(4.0)
        assert wasserstein_bound(3.0, 0.0, 1) == 0.0

    def test_rejects_vacuous_rate(self):
        with pytest.raises(ValueError):
            wasserstein_bound(1.0, 1.0, 3)
        with pytest.raises(ValueError):
            wasserstein_bound(1.0, 2.5, 3)
        with pytest.raises(ValueError):
            wasserstein_bound(-1.0, 0.5, 3)
