"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from gibbsgap.cli import main
from gibbsgap.data_io import SimConfig, simulate, synthetic_summary
from gibbsgap.distributions import noncentral_chisq_sample
from gibbsgap.model_core import Hyperparams, Shrinkage, summarize
from gibbsgap.replicate_chains import contraction_check, eta_map, gamma_flat, gamma_shrink
from gibbsgap.simple_gibbs import SimpleModelTraceChain
from gibbsgap.spectral_estimator import (
    Ar1TraceChain,
    Status,
    ar1_matched_proposal_sd,
    ar1_oracle_exact,
    estimate,
)
from scalar_chain import MuA, draw_theta_full, draw_theta_stats


def _verdict(criterion: str, ok: bool, detail: str = "") -> bool:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence(2024, spawn_key=key))


def test_criterion_1_oracle_exactness():
    """AR grid rho x l: |s_hat - s_exact| < 3 SE in all 9 cells, under a minute."""
    t0 = time.perf_counter()
    failures = []
    for i, rho in enumerate((0.25, 0.5, 0.9)):
        for j, l in enumerate((1, 2, 5)):
            spec = Ar1TraceChain(rho, ar1_matched_proposal_sd(rho, l))
            est = estimate(spec, l, 100_000, _rng(1, i, j), workers=1)
            s_exact, _ = ar1_oracle_exact(rho, l)
            if not abs(est.s_hat - s_exact) < 3 * est.s_se:
                failures.append((rho, l, est.s_hat, s_exact, est.s_se))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    assert _verdict(
        "criterion 1 (oracle exactness, 9 cells)", ok,
        f"elapsed={elapsed:.1f}s failures={failures}",
    )


def test_criterion_2_fast_path_equivalence():
    """Compressed draw vs summarized full-vector draw at n=50, A=V=1, mu=0.3."""
    t0 = time.perf_counter()
    h = Hyperparams(a=2.0, b=1.0, V=1.0)
    d, y = simulate(SimConfig(n=50, r=1, A_true=1.0, V_true=1.0, seed=202), return_raw=True)
    mu_a = MuA(mu=0.3, A=1.0)
    n_draws = 100_000

    rng = _rng(2, 0)
    fast = np.array(
        [(s.theta_bar, s.ss) for s in (draw_theta_stats(mu_a, d, h, rng) for _ in range(n_draws))]
    )
    rng = _rng(2, 1)
    full = np.empty((n_draws, 2))
    for i in range(n_draws):
        th = draw_theta_full(mu_a, y, h, rng)
        tb = th.mean()
        full[i] = (tb, np.sum((th - tb) ** 2))

    p_tb = sps.ks_2samp(fast[:, 0], full[:, 0]).pvalue
    p_ss = sps.ks_2samp(fast[:, 1], full[:, 1]).pvalue
    ok = p_tb > 1e-3 and p_ss > 1e-3
    for moment in (lambda a: a[:, 0], lambda a: a[:, 1],
                   lambda a: a[:, 0] ** 2, lambda a: a[:, 1] ** 2):
        mf, mg = moment(fast), moment(full)
        se = math.sqrt(mf.var(ddof=1) / n_draws + mg.var(ddof=1) / n_draws)
        ok = ok and abs(mf.mean() - mg.mean()) < 3 * se
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    assert _verdict(
        "criterion 2 (fast-path equivalence)", ok,
        f"KS p=({p_tb:.3g}, {p_ss:.3g}) elapsed={elapsed:.1f}s",
    )


def test_criterion_3_desk_scale_bound_sweep():
    """Preset A=V=1 (a=2, b=1), N=1e5, n in {1e2,1e3,1e4}: inside each
    chain's settled l-window every ok-status bound satisfies u + 3 SE < 1.

    The window is located by a cheap pilot scan (raise l until the bound plus
    3 pilot SEs clears 1, the usual practice for this estimator), then the
    frozen criterion is checked on full-size runs at that l and the next.
    """
    t0 = time.perf_counter()
    h = Hyperparams(a=2.0, b=1.0, V=1.0)
    master = simulate(SimConfig(n=10**4, r=1, A_true=1.0, V_true=1.0, seed=303), return_raw=True)[1]

    ok = True
    details = []
    for i_n, n in enumerate((100, 1000, 10_000)):
        chain = SimpleModelTraceChain(summarize(master[:n]), h)
        window = None
        for l in range(2, 15):
            pilot = estimate(chain, l, 20_000, _rng(3, i_n, l))
            if (
                pilot.status is Status.OK
                and pilot.u_hat is not None
                and pilot.u_hat + 3 * pilot.u_se < 1.0
            ):
                window = (l, l + 1)
                break
        if window is None:
            ok = False
            details.append(f"n={n}: no window")
            continue
        reported = 0
        for j, l in enumerate(window):
            est = estimate(chain, l, 100_000, _rng(3, i_n, 100 + j))
            if est.status is Status.OK:
                reported += 1
                if not est.u_hat + 3 * est.u_se < 1.0:
                    ok = False
            details.append(
                f"n={n} l={l}: u={est.u_hat:.4f}+-{est.u_se:.4f} {est.status.value}"
            )
        ok = ok and reported > 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    assert _verdict(
        "criterion 3 (desk-scale bound sweep)", ok,
        f"elapsed={elapsed:.1f}s; " + "; ".join(details),
    )


def test_criterion_4_noncentral_chi_square_moments():
    k = 99.0
    ok = True
    details = []
    for i, phi in enumerate((0.0, 1.0, 50.0)):
        rng = _rng(4, i)
        n = 100_000
        x = np.array([noncentral_chisq_sample(k, phi, rng) for _ in range(n)])
        mean, var = k + 2 * phi, 2 * k + 8 * phi
        se_mean = math.sqrt(var / n)
        m4 = np.mean((x - x.mean()) ** 4)
        se_var = math.sqrt((m4 - x.var() ** 2) / n)
        ok_mean = abs(x.mean() - mean) < 3 * se_mean
        ok_var = abs(x.var(ddof=1) - var) < 3 * se_var
        ok = ok and ok_mean and ok_var
        details.append(f"phi={phi}: mean {x.mean():.2f}/{mean} var {x.var(ddof=1):.1f}/{var}")
    assert _verdict("criterion 4 (noncentral chi-square moments)", ok, "; ".join(details))


def test_criterion_5_flat_rate_values_and_regime():
    h = Hyperparams(a=1.0, b=1.0, V=1.0)
    d0 = synthetic_summary(2, 1, delta_prime=0.0)
    v1 = gamma_flat(2, 1, d0, h)
    v2 = gamma_flat(100, 10**4, d0, h)
    ok = (
        abs(v1 - math.sqrt(6.5)) <= 1e-12 * math.sqrt(6.5)
        and abs(v2 - math.sqrt(0.115)) <= 1e-12 * math.sqrt(0.115)
    )
    regime = [
        gamma_flat(n, n**2, synthetic_summary(n, n**2, delta_prime=float(n)), h)
        for n in (10, 100, 1000)
    ]
    ok = ok and regime[0] > regime[1] > regime[2] and regime[2] < 0.15
    assert _verdict(
        "criterion 5 (flat-prior rate)", ok,
        f"sqrt(6.5)={v1:.12g} sqrt(0.115)={v2:.12g} regime={['%.4f' % g for g in regime]}",
    )


def test_criterion_6_shrinkage_rate_value():
    d = synthetic_summary(2, 1, delta_prime=0.0, y_bar=0.4)
    h = Hyperparams(1.0, 1.0, 1.0, shrinkage=Shrinkage(w=0.4, z=1.0))
    v = gamma_shrink(2, 1, d, h)
    ok = abs(v - math.sqrt(323.0)) <= 1e-12 * math.sqrt(323.0)
    assert _verdict("criterion 6 (shrinkage rate)", ok, f"sqrt(323)={v:.12g}")


def test_criterion_7_coupling_contraction():
    t0 = time.perf_counter()
    n, r = 20, 10**4
    h = Hyperparams(a=1.0, b=1.0, V=1.0)
    d = synthetic_summary(n, r, delta_prime=0.0)
    gamma = gamma_flat(n, r, d, h)
    report = contraction_check(
        eta_map, n, r, d, h, num_pairs=100, reps_per_pair=10_000, rng=_rng(7),
    )
    elapsed = time.perf_counter() - t0
    ok = (
        gamma < 1.0
        and report.pairs_tested == 100
        and report.violations == 0
        and elapsed < 300.0
    )
    assert _verdict(
        "criterion 7 (coupling contraction)", ok,
        f"gamma={gamma:.4f} empirical={report.gamma_empirical_mean:.4f} "
        f"violations={report.violations} elapsed={elapsed:.1f}s",
    )


def test_criterion_8_determinism_and_parallel_soundness(tmp_path):
    """Rerunning any command with the same seed and any worker count gives
    bit-identical CSV output."""
    cases = [
        (
            "gap_results.csv",
            lambda out, w: [
                "estimate-gap", "--n-grid", "60", "--l-scan", "1..2", "--N", "20000",
                "--preset", "A1V1", "--seed", "5", "--workers", w, "--out", out,
            ],
        ),
        (
            "oracle_results.csv",
            lambda out, w: [
                "oracle", "--rhos", "0.5", "--ls", "1,2", "--N", "20000",
                "--seed", "6", "--workers", w, "--out", out,
            ],
        ),
        (
            "contraction_results.csv",
            lambda out, w: [
                "contraction", "--n-grid", "10,100", "--check-pairs", "5", "--reps", "500",
                "--seed", "7", "--workers", w, "--out", out,
            ],
        ),
        (
            "dataset.csv",
            lambda out, w: [
                "simulate", "--n", "300", "--A", "1", "--V", "1", "--seed", "8", "--out", out,
            ],
        ),
    ]
    ok = True
    for filename, argv in cases:
        blobs = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / f"{filename}-{tag}"
            code = main(argv(str(out), workers))
            ok = ok and code == 0
            blobs.append((out / filename).read_bytes())
        ok = ok and blobs[0] == blobs[1] == blobs[2]
    assert _verdict("criterion 8 (determinism & parallel soundness)", ok)


def test_criterion_9_ci_coverage():
    """200 independent runs at rho=0.5, l=2, N=1e4: the 1.96 SE interval
    covers the exact value at least 184 times."""
    rho, l, N, runs = 0.5, 2, 10_000, 200
    s_exact, _ = ar1_oracle_exact(rho, l)
    spec = Ar1TraceChain(rho, ar1_matched_proposal_sd(rho, l))
    covered = 0
    for i in range(runs):
        est = estimate(spec, l, N, _rng(9, i))
        if abs(est.s_hat - s_exact) <= 1.96 * est.s_se:
            covered += 1
    ok = covered >= 184
    assert _verdict("criterion 9 (CI coverage)", ok, f"covered {covered}/200")
