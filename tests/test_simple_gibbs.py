import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy import special
from scipy import stats as sps

import scalar_chain
from gibbsgap import simple_gibbs
from gibbsgap.cli import PRESETS
from gibbsgap.data_io import SimConfig, simulate
from gibbsgap.distributions import (
    invgamma_log_pdf,
    invgamma_sample,
    noncentral_chisq_sample,
    normal_log_pdf,
)
from gibbsgap.model_core import DataSummary, Hyperparams, Workspace, summarize
from gibbsgap.simple_gibbs import (
    SimpleModelTraceChain,
    aux_location_variance,
    fit_log_variance,
    variance_proposal,
)
from gibbsgap.spectral_estimator import CHUNK_SIZE, estimate_scan
from scalar_chain import (
    AuxSample,
    MuA,
    ThetaStats,
    draw_muA_given_theta,
    draw_theta_full,
    draw_theta_stats,
    draw_trace_sample,
    gibbs_step,
    log_weight,
)

H = Hyperparams(a=2.0, b=1.0, V=1.0)


def _data(n, seed=11, A=1.0, V=1.0):
    return simulate(SimConfig(n=n, r=1, A_true=A, V_true=V, seed=seed), return_raw=True)


class TestBlockDraws:
    def test_variance_marginal_matches_conditional_law(self):
        st = ThetaStats(theta_bar=0.4, ss=3.0)
        rng = np.random.default_rng(0)
        draws = np.array([draw_muA_given_theta(st, H, 10, rng).A for _ in range(10_000)])
        ref = sps.invgamma(H.a + 4.5, scale=H.b + 1.5)
        assert sps.kstest(draws, ref.cdf).pvalue > 1e-3

    def test_location_centers_on_theta_bar(self):
        st = ThetaStats(theta_bar=1.7, ss=2.0)
        rng = np.random.default_rng(1)
        mus = np.array([draw_muA_given_theta(st, H, 20, rng).mu for _ in range(100_000)])
        se = mus.std(ddof=1) / math.sqrt(mus.size)
        assert abs(mus.mean() - 1.7) < 3 * se

    def test_variance_mean_hand_case(self):
        # ss=0, b=1, a=2, n=3: the conditional is InverseGamma(3, 1), mean 1/2.
        st = ThetaStats(theta_bar=0.0, ss=0.0)
        h = Hyperparams(a=2.0, b=1.0, V=1.0)
        rng = np.random.default_rng(2)
        draws = np.array([draw_muA_given_theta(st, h, 3, rng).A for _ in range(100_000)])
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.5) < 3 * se

    def test_rejects_fewer_than_two_groups(self):
        with pytest.raises(ValueError, match="n >= 2"):
            draw_muA_given_theta(ThetaStats(0.0, 1.0), H, 1, np.random.default_rng(0))


class TestCompressedDraw:
    def test_centered_case(self):
        d = summarize(np.full(20, 0.8))  # delta = 0
        rng = np.random.default_rng(3)
        draws = np.array(
            [draw_theta_stats(MuA(mu=0.8, A=1.0), d, H, rng).theta_bar for _ in range(50_000)]
        )
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.8) < 3 * se

    def test_sum_of_squares_mean_identity(self):
        # A=V=1, n=100, delta=50: phi = 50/4, E[SS] = 0.5*(99 + 2*phi) = 62.
        d = summarize(np.concatenate([[math.sqrt(50 * 100 / 99)], np.zeros(99)]))
        assert d.delta == pytest.approx(50.0)
        rng = np.random.default_rng(4)
        ss = np.array(
            [draw_theta_stats(MuA(mu=0.0, A=1.0), d, H, rng).ss for _ in range(100_000)]
        )
        phi = 1.0 * 50.0 / (2.0 * 1.0 * 2.0)
        expected = 0.5 * (99 + 2 * phi)
        se = ss.std(ddof=1) / math.sqrt(ss.size)
        assert abs(ss.mean() - expected) < 3 * se

    def test_rejects_replicated_data(self):
        d = summarize([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="r=1"):
            draw_theta_stats(MuA(0.0, 1.0), d, H, np.random.default_rng(0))


class TestFullVectorDraw:
    def test_coordinate_means_and_independence(self):
        y = np.array([0.0, 1.0, -2.0, 0.5, 3.0])
        mu_a = MuA(mu=0.3, A=2.0)
        rng = np.random.default_rng(5)
        n_draws = 40_000
        out = np.array([draw_theta_full(mu_a, y, H, rng) for _ in range(n_draws)])
        target = (H.V * mu_a.mu + mu_a.A * y) / (mu_a.A + H.V)
        se = out.std(axis=0, ddof=1) / math.sqrt(n_draws)
        assert np.all(np.abs(out.mean(axis=0) - target) < 3 * se)
        # off-diagonal covariance consistent with independence
        c = np.cov(out[:, 0], out[:, 1])[0, 1]
        se_cov = out[:, 0].std() * out[:, 1].std() / math.sqrt(n_draws)
        assert abs(c) < 3 * se_cov


@pytest.mark.parametrize("n", [5, 50])
def test_fast_path_equals_full_path(n):
    """The compressed draw and the summarized full-vector draw must agree in
    law: KS per coordinate plus first and second (and mixed) moments."""
    d, y = _data(n, seed=n)
    mu_a = MuA(mu=0.3, A=1.0)
    n_draws = 100_000
    rng_fast = np.random.default_rng(100 + n)
    fast = np.array(
        [
            (s.theta_bar, s.ss)
            for s in (draw_theta_stats(mu_a, d, H, rng_fast) for _ in range(n_draws))
        ]
    )
    rng_full = np.random.default_rng(200 + n)
    full = np.empty((n_draws, 2))
    for i in range(n_draws):
        th = draw_theta_full(mu_a, y, H, rng_full)
        tb = th.mean()
        full[i] = (tb, np.sum((th - tb) ** 2))

    assert sps.ks_2samp(fast[:, 0], full[:, 0]).pvalue > 1e-3
    assert sps.ks_2samp(fast[:, 1], full[:, 1]).pvalue > 1e-3
    for moment in (
        lambda a: a[:, 0],
        lambda a: a[:, 1],
        lambda a: a[:, 0] ** 2,
        lambda a: a[:, 1] ** 2,
        lambda a: a[:, 0] * a[:, 1],
    ):
        mf, mg = moment(fast), moment(full)
        se = math.sqrt(mf.var(ddof=1) / n_draws + mg.var(ddof=1) / n_draws)
        assert abs(mf.mean() - mg.mean()) < 3 * se


class TestGibbsStep:
    def test_fixed_seed_gives_identical_trajectory(self):
        d = _data(30)[0]
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            st = ThetaStats(0.0, 1.0)
            runs.append([(st := gibbs_step(st, d, H, rng)) for _ in range(50)])
        assert all(a == b for a, b in zip(*runs))

    def test_state_invariant_holds(self):
        d = _data(10)[0]
        rng = np.random.default_rng(8)
        st = ThetaStats(5.0, 0.0)
        for _ in range(1000):
            st = gibbs_step(st, d, H, rng)
            assert st.ss >= 0.0

    def test_two_long_runs_agree_on_stationary_mean(self):
        d = _data(40)[0]
        steps, burn = 100_000, 1000

        def run(seed):
            rng = np.random.default_rng(seed)
            st = ThetaStats(0.0, 1.0)
            vals = np.empty(steps)
            for i in range(steps):
                st = gibbs_step(st, d, H, rng)
                vals[i] = st.theta_bar
            return vals[burn:]

        a, b = run(1), run(2)
        se = math.sqrt(_batch_means_se(a) ** 2 + _batch_means_se(b) ** 2)
        assert abs(a.mean() - b.mean()) < 4 * se

    def test_million_step_seed_stability_of_time_averages(self):
        # Time-averages of both the variance component and the state mean
        # must be seed-stable within batch-means Monte Carlo error.
        d = _data(25)[0]
        steps, burn = 1_000_000, 2000

        def run(seed):
            rng = np.random.default_rng(seed)
            st = ThetaStats(0.0, 1.0)
            a_vals = np.empty(steps)
            t_vals = np.empty(steps)
            for i in range(steps):
                mu_a = draw_muA_given_theta(st, H, d.n, rng)
                st = draw_theta_stats(mu_a, d, H, rng)
                a_vals[i] = mu_a.A
                t_vals[i] = st.theta_bar
            return a_vals[burn:], t_vals[burn:]

        a1, t1 = run(31)
        a2, t2 = run(32)
        for x1, x2 in ((a1, a2), (t1, t2)):
            se = math.sqrt(_batch_means_se(x1) ** 2 + _batch_means_se(x2) ** 2)
            assert abs(x1.mean() - x2.mean()) < 4 * se


def _batch_means_se(x, batches=50):
    m = len(x) // batches
    means = x[: m * batches].reshape(batches, m).mean(axis=1)
    return means.std(ddof=1) / math.sqrt(batches)


class TestWeight:
    def test_aux_location_variance_value(self):
        d = _data(4)[0]
        assert aux_location_variance(1.0, d, Hyperparams(2.0, 1.0, 1.0)) == pytest.approx(2.5)
        # (A+V)(A+4V) overflows a double here; the variance itself does not.
        A = Fraction(1e300)
        with np.errstate(over="raise"):
            big = aux_location_variance(np.float64(1e300), d, Hyperparams(2.0, 1e300, 1.0))
        assert math.isfinite(big)
        assert big == pytest.approx(float((A + 1) * (A + 4) / (4 * A)), rel=1e-12)

    def test_addends_match_quadrature_normalized_kernels(self):
        """Each of the four weight addends is a normalized density; check the
        analytic normalizers against numerical quadrature of the bare kernels."""
        d = _data(6)[0]
        st = ThetaStats(theta_bar=0.4, ss=2.2)
        A = 0.9
        shape = H.a + (d.n - 1) / 2.0
        scale = H.b + st.ss / 2.0
        def ig_normalizer(s, c):
            # substitute u = 1/x: the reciprocal-scale kernel integrates as a
            # Gamma kernel, which quadrature handles to full precision
            hi = (s + 50.0 * math.sqrt(s) + 50.0) / c
            z, _ = integrate.quad(
                lambda u: u ** (s - 1) * math.exp(-c * u), 0.0, hi,
                epsabs=1e-12, epsrel=1e-12, limit=300,
            )
            return z

        def normal_normalizer(center, variance):
            sd = math.sqrt(variance)
            z, _ = integrate.quad(
                lambda x: math.exp(-((x - center) ** 2) / (2 * variance)),
                center - 12 * sd, center + 12 * sd, epsabs=1e-12, epsrel=1e-12, limit=300,
            )
            return z

        aux_var = aux_location_variance(A, d, H)
        cases = [
            # (log density at x, unnormalized kernel, quadrature normalizer)
            (
                lambda x: invgamma_log_pdf(x, shape, scale),
                lambda x: x ** (-shape - 1) * math.exp(-scale / x),
                ig_normalizer(shape, scale),
            ),
            (
                lambda x: normal_log_pdf(x, st.theta_bar, A / d.n),
                lambda x: math.exp(-((x - st.theta_bar) ** 2) / (2 * A / d.n)),
                normal_normalizer(st.theta_bar, A / d.n),
            ),
            (
                lambda x: invgamma_log_pdf(x, H.a, H.b),
                lambda x: x ** (-H.a - 1) * math.exp(-H.b / x),
                ig_normalizer(H.a, H.b),
            ),
            (
                lambda x: normal_log_pdf(x, d.y_bar, aux_var),
                lambda x: math.exp(-((x - d.y_bar) ** 2) / (2 * aux_var)),
                normal_normalizer(d.y_bar, aux_var),
            ),
        ]
        for lp, kernel, z in cases:
            for x in (0.3, 0.7, 1.1, 1.9, 3.4):
                expected = math.log(kernel(x)) - math.log(z)
                assert float(lp(x)) == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_weight_finite_on_aux_support(self):
        d = _data(8)[0]
        rng = np.random.default_rng(12)
        for _ in range(1000):
            s = draw_trace_sample(1, d, H, rng)
            assert math.isfinite(log_weight(s, d, H))


def _summary(n, y_bar=0.0, delta=0.0):
    return DataSummary(r=1, y_bar=y_bar, group_means=np.zeros(n), delta=delta, delta_prime=delta)


class TestConditionalHandValues:
    """The conditional laws written inline in the scalar chain, pinned on
    hand-computed parameters."""

    # (h, n, y_bar, theta_bar, ss, A, mu, posterior IG (shape, scale),
    #  location conditional (mean, variance), auxiliary location variance)
    WEIGHT_CASES = [
        (Hyperparams(2.0, 1.0, 1.0), 3, 0.5, 0.0, 4.0, 1.0, 0.2, (3.0, 3.0), (0.0, 1.0 / 3.0), 10.0 / 3.0),
        (Hyperparams(2.0, 1.0, 1.0), 5, -0.3, 1.0, 0.0, 1.0, 0.7, (4.0, 1.0), (1.0, 0.2), 2.0),
        (Hyperparams(0.5, 2.0, 1.0), 2, 0.0, 0.0, 2.0, 1.0, -0.4, (1.0, 3.0), (0.0, 0.5), 5.0),
        (Hyperparams(2.0, 1.0, 1.0), 4, 1.0, 1.5, 0.0, 2.0, 1.1, (3.5, 1.0), (1.5, 0.5), 2.25),
    ]

    @pytest.mark.parametrize("case", range(len(WEIGHT_CASES)))
    def test_log_weight_is_sum_of_scipy_log_densities(self, case):
        h, n, y_bar, theta_bar, ss, A, mu, (shape, scale), (m, v), aux_var = self.WEIGHT_CASES[case]
        s = AuxSample(MuA(mu=mu, A=A), ThetaStats(theta_bar, ss))
        expected = (
            sps.invgamma(shape, scale=scale).logpdf(A)
            + sps.norm(m, math.sqrt(v)).logpdf(mu)
            - sps.invgamma(h.a, scale=h.b).logpdf(A)
            - sps.norm(y_bar, math.sqrt(aux_var)).logpdf(mu)
        )
        assert log_weight(s, _summary(n, y_bar), h) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("case", range(len(WEIGHT_CASES)))
    def test_block_draw_uses_hand_parameters(self, case):
        h, n, _, theta_bar, ss, _, _, (shape, scale), _, _ = self.WEIGHT_CASES[case]
        rng, rng2 = np.random.default_rng(case), np.random.default_rng(case)
        for _ in range(20):
            mu_a = draw_muA_given_theta(ThetaStats(theta_bar, ss), h, n, rng)
            A = 1.0 / rng2.gamma(shape, 1.0 / scale)
            assert mu_a.A == A
            assert mu_a.mu == theta_bar + math.sqrt(A / n) * rng2.standard_normal()

    @pytest.mark.parametrize(
        "A, delta, phi", [(1.0, 2.0, 0.5), (1.0, 4.0, 1.0), (3.0, 8.0, 3.0), (5.0, 0.0, 0.0)]
    )
    def test_noncentrality_hand_values(self, A, delta, phi):
        h = Hyperparams(1.0, 1.0, 1.0)
        d = _summary(2, delta=delta)
        rng, rng2 = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(50):
            ss = draw_theta_stats(MuA(mu=0.0, A=A), d, h, rng).ss
            rng2.standard_normal()
            assert ss == A * h.V / (A + h.V) * noncentral_chisq_sample(d.n - 1, phi, rng2)


class TestTraceSample:
    def test_l1_runs_no_gibbs_steps(self, monkeypatch):
        calls = []
        orig = scalar_chain.gibbs_step
        monkeypatch.setattr(
            scalar_chain, "gibbs_step", lambda *a, **k: calls.append(1) or orig(*a, **k)
        )
        d = _data(5)[0]
        s = draw_trace_sample(1, d, H, np.random.default_rng(0))
        assert calls == []
        assert isinstance(s, AuxSample)

    def test_l3_runs_exactly_two_gibbs_steps(self, monkeypatch):
        calls = []
        orig = scalar_chain.gibbs_step
        monkeypatch.setattr(
            scalar_chain, "gibbs_step", lambda *a, **k: calls.append(1) or orig(*a, **k)
        )
        d = _data(5)[0]
        draw_trace_sample(3, d, H, np.random.default_rng(0))
        assert len(calls) == 2

    def test_aux_variance_marginal_matches_prior(self):
        d = _data(12)[0]
        rng = np.random.default_rng(13)
        draws = np.array([draw_trace_sample(1, d, H, rng).mu_a.A for _ in range(10_000)])
        assert sps.kstest(draws, sps.invgamma(H.a, scale=H.b).cdf).pvalue > 1e-3

    def test_small_n_rejected(self):
        d = summarize([0.0, 1.0])
        with pytest.raises(ValueError, match="trace-class.*n >= 3"):
            draw_trace_sample(2, d, H, np.random.default_rng(0))
        with pytest.raises(ValueError, match="trace-class"):
            SimpleModelTraceChain(d, H)

    def test_batch_weights_agree_with_scalar_path(self):
        # Rows l = 1..3 of one L = 3 trajectory against independent scalar
        # draws for each l.
        d = _data(20)[0]
        chain = SimpleModelTraceChain(d, H)
        n_draws = 20_000
        rows = np.exp(chain.draw_log_weights(3, n_draws, np.random.default_rng(14)))
        assert rows.shape == (3, n_draws)
        rng = np.random.default_rng(15)
        for l, batch in enumerate(rows, start=1):
            scalar = np.exp(
                [log_weight(draw_trace_sample(l, d, H, rng), d, H) for _ in range(n_draws)]
            )
            se = math.sqrt(batch.var(ddof=1) / n_draws + scalar.var(ddof=1) / n_draws)
            assert abs(batch.mean() - scalar.mean()) < 4 * se, l

    @pytest.mark.parametrize("V", [1e-300, 1e-320])
    def test_overflowing_noncentrality_is_named(self, V):
        # A delta / (2 V (A + V)) passes numpy's Poisson limit (V = 1e-300)
        # or overflows to inf (V = 1e-320); numpy's own error named neither.
        chain = SimpleModelTraceChain(_data(100)[0], Hyperparams(a=2.0, b=1.0, V=V))
        with pytest.raises(ValueError, match=rf"noncentrality .* reaches .* at n = 100, delta = .*, V = {V:.4g}") as info:
            chain.draw_log_weights(2, 1000, np.random.default_rng(0))
        assert "lam" not in str(info.value)

    def test_each_row_equals_its_single_l_call(self):
        chain = SimpleModelTraceChain(_data(20)[0], H)
        rows = chain.draw_log_weights(4, 500, np.random.default_rng(3))
        for l in range(1, 5):
            single = chain.draw_log_weights(l, 500, np.random.default_rng(3))
            assert single.shape == (l, 500)
            assert np.array_equal(rows[:l], single)


def _kernel_weights(d, h, L, size, rng, proposal=None):
    """The weights written with the four kernels, as the estimator had them
    before the mixture existed: the prior IG(a, b) as the A* proposal, or
    `proposal` drawn as `_draw_variance` draws it."""
    def stats(mu, A):
        cond_var = A * h.V / (A + h.V)
        theta_bar = (h.V * mu + A * d.y_bar) / (A + h.V) + np.sqrt(
            cond_var / d.n
        ) * rng.standard_normal(np.shape(A))
        phi = A * d.delta / (2.0 * h.V * (A + h.V))
        return theta_bar, cond_var * noncentral_chisq_sample(d.n - 1, phi, rng)

    q = proposal or simple_gibbs.VarianceProposal(eps=1.0)
    if q.eps == 1.0:
        A_star = invgamma_sample(h.a, h.b, rng, size=size)
        den_ig = invgamma_log_pdf(A_star, h.a, h.b)
    else:
        prior = rng.random(size) < q.eps
        A_star = invgamma_sample(np.where(prior, h.a, q.alpha), np.where(prior, h.b, q.beta), rng)
        den_ig = np.logaddexp(math.log(q.eps) + invgamma_log_pdf(A_star, h.a, h.b),
                              math.log1p(-q.eps) + invgamma_log_pdf(A_star, q.alpha, q.beta))
    aux_var = aux_location_variance(A_star, d, h)
    mu_star = d.y_bar + np.sqrt(aux_var) * rng.standard_normal(size)
    theta_bar, ss = stats(mu_star, A_star)
    shape_post = h.a + (d.n - 1) / 2.0
    den_n = normal_log_pdf(mu_star, d.y_bar, aux_var)
    out = np.empty((L, size))
    for i in range(L):
        if i:
            A = invgamma_sample(shape_post, h.b + ss / 2.0, rng)
            theta_bar, ss = stats(theta_bar + np.sqrt(A / d.n) * rng.standard_normal(size), A)
        out[i] = (
            invgamma_log_pdf(A_star, shape_post, h.b + ss / 2.0)
            + normal_log_pdf(mu_star, theta_bar, A_star / d.n)
            - den_ig
            - den_n
        )
    return out


def _log_posterior_score(t, d, h):
    """Derivative of -a t - b e^-t - (n-1)/2 log(e^t + V) - delta/(2(e^t + V))."""
    A = math.exp(t)
    share = A / (A + h.V)
    return -h.a + h.b * math.exp(-t) - (d.n - 1) / 2.0 * share + d.delta / (2.0 * (A + h.V)) * share


class TestVarianceProposal:
    """The A* proposal: the prior below the switch, the defensive mixture
    eps*IG(a, b) + (1 - eps)*IG(alpha, beta) above it."""

    @pytest.mark.parametrize("n", [20, 1000])
    def test_below_switch_weights_equal_the_prior_formula(self, n):
        d = _data(n)[0]
        chain = SimpleModelTraceChain(d, H)
        assert chain.proposal.kind == "prior" and chain.proposal.eps == 1.0
        rows = chain.draw_log_weights(4, 2000, np.random.default_rng(3))
        assert np.array_equal(rows, _kernel_weights(d, H, 4, 2000, np.random.default_rng(3)))

    @pytest.mark.parametrize("L", [1, 2, 10])
    @pytest.mark.parametrize("n, kind", [(20, "prior"), (1000, "prior"), (10_000, "mixture")])
    def test_weights_equal_the_kernel_formula_bit_for_bit(self, n, kind, L):
        # A full chunk, then the desk sweep's partial last chunk (N = 1e5) in
        # the same workspace, as a worker thread draws them.
        d = _data(n)[0]
        chain = SimpleModelTraceChain(d, H)
        assert chain.proposal.kind == kind
        ws = Workspace()
        for size in (CHUNK_SIZE, 100_000 % CHUNK_SIZE):
            rows = chain.draw_log_weights(L, size, np.random.default_rng(size), workspace=ws)
            ref = _kernel_weights(d, H, L, size, np.random.default_rng(size), chain.proposal)
            assert np.array_equal(rows, ref), size

    def test_switch_follows_the_spread_ratio(self):
        master = _data(10_000)[1]
        small = variance_proposal(summarize(master[:100]), H)
        large = variance_proposal(summarize(master), H)
        assert small.kind == "prior" and small.spread_ratio < simple_gibbs.MIXTURE_MIN_SPREAD_RATIO
        assert large.kind == "mixture"
        assert large.spread_ratio >= simple_gibbs.MIXTURE_MIN_SPREAD_RATIO
        assert large.eps == simple_gibbs.DEFENSIVE_SHARE
        t0, precision = fit_log_variance(summarize(master), H)
        assert large.t0 == t0
        assert large.alpha == pytest.approx(precision / simple_gibbs.FIT_INFLATION**2, rel=1e-15)
        # The fitted component's mode e^t0: beta / (alpha + 1).
        assert large.beta / (large.alpha + 1.0) == pytest.approx(math.exp(t0), rel=1e-14)
        # A mode below e^-700 (here near b/a = 5e-309) is not fitted.
        tiny_b = Hyperparams(a=2.0, b=1e-308, V=1.0)
        assert fit_log_variance(summarize(master), tiny_b) is None
        assert variance_proposal(summarize(master), tiny_b) == simple_gibbs.VarianceProposal(eps=1.0)

    @pytest.mark.parametrize("n, b", [(100, 1.0), (10_000, 1.0), (1000, 1e300), (1000, 1e-300)])
    def test_fit_zeroes_the_score_and_matches_finite_difference_curvature(self, n, b):
        d = _data(n)[0]
        h = Hyperparams(a=2.0, b=b, V=1.0)
        t0, precision = fit_log_variance(d, h)
        assert precision > 0
        # The Newton step left at t0 is below 1e-9 of the posterior's sd.
        assert abs(_log_posterior_score(t0, d, h)) <= 1e-9 * math.sqrt(precision)
        step = 1e-4 / math.sqrt(precision)
        fd = (_log_posterior_score(t0 + step, d, h) - _log_posterior_score(t0 - step, d, h)) / (2 * step)
        assert -fd == pytest.approx(precision, rel=1e-6)

    @pytest.mark.parametrize("x", [1e-3, 0.5, 2.0, 9.999, 10.0, 47.5, 1e5])
    def test_trigamma(self, x):
        assert simple_gibbs._trigamma(x) == pytest.approx(float(special.polygamma(1, x)), rel=1e-10)

    def test_mixture_weight_is_at_most_prior_weight_over_eps(self, monkeypatch):
        # Both weights on the same (mu*, A*, theta) draws: the mixture density
        # is at least eps times the prior's, so w_mix <= w_prior / eps, the
        # pointwise form of E[w^2] <= E_prior[w^2] / eps.
        monkeypatch.setattr(simple_gibbs, "MIXTURE_MIN_SPREAD_RATIO", 0.0)
        chain = SimpleModelTraceChain(_data(50)[0], H)
        assert chain.proposal.kind == "mixture"
        draw = chain._draw_variance
        mixture = chain.draw_log_weights(3, 20_000, np.random.default_rng(21))

        def prior_density(size, rng, ws):
            A, _ = draw(size, rng, ws)
            return A, invgamma_log_pdf(A, H.a, H.b)

        monkeypatch.setattr(chain, "_draw_variance", prior_density)
        prior = chain.draw_log_weights(3, 20_000, np.random.default_rng(21))
        gap = prior - math.log(chain.proposal.eps) - mixture
        assert gap.min() >= -1e-9

    def test_mixture_and_prior_estimates_agree_at_n_1e4(self, monkeypatch):
        d = _data(10_000, seed=12)[0]
        ls, N = (2, 5, 10), 100_000
        mixture = SimpleModelTraceChain(d, H)
        monkeypatch.setattr(simple_gibbs, "MIXTURE_MIN_SPREAD_RATIO", math.inf)
        prior = SimpleModelTraceChain(d, H)
        assert (mixture.proposal.kind, prior.proposal.kind) == ("mixture", "prior")
        for est_m, est_p in zip(estimate_scan(mixture, ls, N, np.random.default_rng(31)),
                                estimate_scan(prior, ls, N, np.random.default_rng(32))):
            se = math.sqrt(est_m.s_se**2 + est_p.s_se**2)
            assert abs(est_m.s_hat - est_p.s_hat) < 4 * se, est_m.l
            # The variance guarantee holds with room to spare at this n.
            assert est_m.s_se < est_p.s_se, est_m.l


# Scaling A, V and b by one c maps the chain onto itself with log A shifted
# by log c, and every weight is a ratio of densities in the same units; so
# the seven presets fall into three scale classes, and within a class the
# estimator's numbers may differ by rounding only.  Each preset's data are
# its own draw at seed 303, whose values scale with sqrt(c) up to rounding.
SCALE_CLASSES = {"A1V1": ("A10V10", "A100V100"), "A10V1": ("A100V10",), "A1V10": ("A10V100",)}
SCALE_SIZES = (100, 1000, 10_000)


def _preset_summaries(preset):
    """The nested sweep summaries of `estimate-gap` at seed 303, and the preset's prior."""
    p = PRESETS[preset]
    master = simulate(SimConfig(n=SCALE_SIZES[-1], r=1, A_true=p["A"], V_true=p["V"], seed=303))
    return [summarize(master.group_means[:n]) for n in SCALE_SIZES], Hyperparams(a=p["a"], b=p["b"], V=p["V"])


class TestScaleClasses:
    @pytest.mark.parametrize("base, scaled", [(base, s) for base, members in SCALE_CLASSES.items() for s in members])
    def test_scan_is_scale_equivariant(self, base, scaled):
        # Three chunks, so the chunk merge is covered too.
        N, ls = 2 * CHUNK_SIZE + 1, range(2, 11)
        (base_data, base_h), (scaled_data, scaled_h) = _preset_summaries(base), _preset_summaries(scaled)
        for i, (d0, d1) in enumerate(zip(base_data, scaled_data)):
            chain0, chain1 = SimpleModelTraceChain(d0, base_h), SimpleModelTraceChain(d1, scaled_h)
            assert chain0.proposal.kind == chain1.proposal.kind, d0.n
            rows0 = estimate_scan(chain0, ls, N, np.random.default_rng([303, i]))
            rows1 = estimate_scan(chain1, ls, N, np.random.default_rng([303, i]))
            for r0, r1 in zip(rows0, rows1):
                assert r1.s_hat == pytest.approx(r0.s_hat, rel=1e-9, abs=0), (d0.n, r0.l)
                assert r1.s_se == pytest.approx(r0.s_se, rel=1e-9, abs=0), (d0.n, r0.l)

    def test_classes_run_both_proposals(self):
        # The equivariance test covers the prior and the fitted mixture.
        kinds = set()
        for base in SCALE_CLASSES:
            data, h = _preset_summaries(base)
            kinds |= {SimpleModelTraceChain(d, h).proposal.kind for d in data}
        assert kinds == {"prior", "mixture"}
