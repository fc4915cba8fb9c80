import math
import zlib

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sps

from gibbsgap.distributions import (
    invgamma_log_pdf,
    invgamma_sample,
    noncentral_chisq_sample,
    normal_log_pdf,
)

N_DRAWS = 100_000

# (sampler, parameters, analytic mean, analytic variance).  The inverse-gamma
# shape is above 4 so the fourth moment behind the variance check's SE exists.
MOMENT_CASES = {
    "InverseGamma(9, 3)": (invgamma_sample, (9.0, 3.0), 0.375, 9.0 / 448.0),
    "NoncentralChiSq(7, 0)": (noncentral_chisq_sample, (7.0, 0.0), 7.0, 14.0),
    "NoncentralChiSq(5, 3)": (noncentral_chisq_sample, (5.0, 3.0), 11.0, 34.0),
}


def _ncx2_draws(df, noncentrality, n, seed):
    rng = np.random.default_rng(seed)
    return np.array([float(noncentral_chisq_sample(df, noncentrality, rng)) for _ in range(n)])


@pytest.mark.parametrize("case", MOMENT_CASES)
def test_empirical_moments_match_analytic(case):
    sampler, params, mean, var = MOMENT_CASES[case]
    # crc32 of the case id: a seed that is the same in every process.
    x = sampler(*params, np.random.default_rng(zlib.crc32(case.encode())), size=N_DRAWS)
    se_mean = math.sqrt(var / N_DRAWS)
    assert abs(x.mean() - mean) < 3 * se_mean
    # SE of the sample variance from the empirical fourth central moment.
    m4 = np.mean((x - x.mean()) ** 4)
    se_var = math.sqrt(max(m4 - x.var() ** 2, 0.0) / N_DRAWS)
    assert abs(x.var(ddof=1) - var) < 3 * se_var


def test_fixed_seed_repeats_exactly():
    for draw in (
        lambda rng: invgamma_sample(2.0, 1.0, rng, size=5),
        lambda rng: noncentral_chisq_sample(3.0, 1.5, rng, size=5),
    ):
        assert np.array_equal(draw(np.random.default_rng(42)), draw(np.random.default_rng(42)))


def test_noncentral_with_zero_shift_is_central():
    k = 6.0
    x = _ncx2_draws(k, 0.0, 20_000, seed=5)
    assert sps.kstest(x, sps.chi2(k).cdf).pvalue > 1e-3
    assert abs(x.mean() - k) < 3 * math.sqrt(2 * k / x.size)


def test_noncentral_moment_identity():
    k, phi = 5.0, 3.0
    x = _ncx2_draws(k, phi, N_DRAWS, seed=7)
    mean, var = k + 2 * phi, 2 * k + 8 * phi
    assert abs(x.mean() - mean) < 3 * math.sqrt(var / N_DRAWS)
    m4 = np.mean((x - x.mean()) ** 4)
    assert abs(x.var(ddof=1) - var) < 3 * math.sqrt((m4 - x.var() ** 2) / N_DRAWS)


def test_noncentral_mixture_matches_shifted_normal_sum():
    # Independent construction: sum of df squared normals, one shifted so the
    # squared shifts total twice the noncentrality parameter.
    k, phi, n = 5, 3.0, 10_000
    rng = np.random.default_rng(21)
    mix = noncentral_chisq_sample(k, phi, rng, size=n)
    z = rng.standard_normal((n, k))
    z[:, 0] += math.sqrt(2 * phi)
    direct = np.sum(z * z, axis=1)
    assert sps.ks_2samp(mix, direct).pvalue > 1e-3


def test_log_pdf_hand_values():
    assert float(invgamma_log_pdf(1.0, 1.0, 1.0)) == pytest.approx(-1.0, abs=1e-12)
    for m, v in [(0.0, 1.0), (2.5, 0.3), (-1.0, 7.0)]:
        expected = -0.5 * math.log(2 * math.pi * v)
        assert float(normal_log_pdf(m, m, v)) == pytest.approx(expected, abs=1e-12)


def test_log_pdf_outside_support_is_neg_inf():
    assert float(invgamma_log_pdf(-1.0, 2.0, 1.0)) == -math.inf
    assert float(invgamma_log_pdf(0.0, 2.0, 1.0)) == -math.inf


# (log density, scipy reference, lower end of the integration range)
QUAD_CASES = {
    "Normal(0.3, 1.7)": (
        lambda x: normal_log_pdf(x, 0.3, 1.7), sps.norm(0.3, math.sqrt(1.7)), 1e-13),
    "InverseGamma(2.5, 1.5)": (
        lambda x: invgamma_log_pdf(x, 2.5, 1.5), sps.invgamma(2.5, scale=1.5), 1e-9),
}


@pytest.mark.parametrize("case", QUAD_CASES)
def test_density_integrates_to_one(case):
    lp, ref, tail = QUAD_CASES[case]
    lo = float(ref.ppf(tail))
    hi = float(ref.ppf(1.0 - 1e-9))
    total, _ = integrate.quad(
        lambda x: math.exp(lp(x)), lo, hi, limit=300, points=[float(ref.median())],
    )
    assert abs(total - 1.0) < 1e-6


def test_log_pdf_matches_scipy_reference():
    for x in [0.3, 1.0, 2.7, 8.0]:
        assert float(invgamma_log_pdf(x, 2.2, 0.9)) == pytest.approx(
            sps.invgamma(2.2, scale=0.9).logpdf(x), abs=1e-10
        )
