import math
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sps

import gibbsgap
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


def test_numpy_identities_the_samplers_rest_on():
    # gamma(k, s) is s * standard_gamma(k) and chisquare(df) is
    # 2 * standard_gamma(df / 2), draw for draw, and each leaves the stream
    # where the other does.  If a numpy release breaks either, the
    # estimator's streams change, so this fails rather than the numbers
    # moving silently.
    k = np.linspace(0.05, 60.0, 2000)  # both sides of numpy's shape-1 branch
    s = np.geomspace(1e-3, 1e3, 2000)
    df = np.linspace(0.5, 2e4, 2000)
    one, two = np.random.default_rng(17), np.random.default_rng(17)
    assert np.array_equal(one.gamma(k, s), s * two.standard_gamma(k))
    assert one.random() == two.random()
    assert np.array_equal(one.chisquare(df), 2 * two.standard_gamma(df / 2))
    assert one.random() == two.random()


@pytest.mark.parametrize("shape", [2.5, np.linspace(0.5, 9.0, 64)], ids=["scalar", "array"])
@pytest.mark.parametrize("into", [False, True], ids=["new", "out"])
def test_samplers_equal_numpys_gamma_and_chisquare(shape, into):
    # The kernels as they were written before they took `out`: 1/gamma(k, 1/s)
    # and chisquare(df + 2 M) with M ~ Poisson.
    scale = np.geomspace(0.1, 50.0, 64)
    phi = np.linspace(0.0, 400.0, 64)
    one, two = np.random.default_rng(23), np.random.default_rng(23)
    out = np.empty(64) if into else None
    assert np.array_equal(invgamma_sample(shape, scale, one, out=out), 1.0 / two.gamma(shape, 1.0 / scale))
    got = noncentral_chisq_sample(9, phi, one, out=out)
    assert got is out or out is None
    assert np.array_equal(got, two.chisquare(9 + 2.0 * two.poisson(phi)))
    assert one.random() == two.random()


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


@pytest.mark.parametrize("shape", [5001.5, 500001.5])
def test_log_pdf_matches_scipy_at_large_shape(shape):
    # The weights' posterior shapes a + (n - 1)/2 for a = 2 at n = 1e4 and
    # 1e6.  The terms reach ~1e7 there and cancel to O(1), so the tolerance
    # is a few roundings of the largest term.
    for A0 in (0.3, 1.0, 4.0):
        scale = shape * A0
        mode = scale / (shape + 1.0)
        x = mode * (1.0 + np.array([-3.0, -1.0, 0.0, 1.0, 3.0]) / math.sqrt(shape))
        got = invgamma_log_pdf(x, shape, np.full_like(x, scale))
        ref = sps.invgamma.logpdf(x, shape, scale=scale)
        largest = max(abs(shape * math.log(scale)), math.lgamma(shape),
                      float(np.max(np.abs((shape + 1.0) * np.log(x)))), float(np.max(scale / x)))
        assert np.all(np.abs(got - ref) <= 4.0 * np.finfo(float).eps * largest)


@pytest.mark.parametrize("prefix", ["scipy.special", "scipy", "multiprocessing", "concurrent.futures.process"])
def test_import_loads_no_scipy_special(prefix):
    # scipy.special costs about 0.3 s of every command's start-up; the
    # log-Gamma terms come from math.lgamma instead.  Top-level scipy cost
    # ~20 ms more, for a version string no output depends on: numpy is the
    # package's only runtime dependency.  The dataset writer's process pool
    # costs ~11 ms, so it is imported only when a write uses it.
    src = str(Path(gibbsgap.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gibbsgap.cli; "
            "print(' '.join(m for m in sys.modules if m.startswith(sys.argv[2])))")
    proc = subprocess.run([sys.executable, "-c", code, src, prefix],
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.split() == []
