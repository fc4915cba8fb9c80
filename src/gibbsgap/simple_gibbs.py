"""Two-block Gibbs sampler for the simple random-effects model (one
observation per group), tracked through its compressed state.

The conditional law of (mu, A) given the effects depends on the effect
vector only through its mean and sum of squared deviations, so the chain is
run on that pair instead of the full n-vector: one normal draw and one
noncentral chi-square draw per step, O(1) in n.

This module provides the auxiliary proposal and the importance weight
behind the eigenvalue-sum estimator, as the batched adapter class
conforming to `spectral_estimator.TraceChainSpec`.  The model types already
guarantee a, b, V, A > 0, ss >= 0 and n >= 2, so every shape, scale and
variance below is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    invgamma_log_pdf,
    invgamma_sample,
    noncentral_chisq_sample,
    normal_log_pdf,
)
from .model_core import DataSummary, Hyperparams, Workspace, named_overflow

__all__ = [
    "aux_location_variance",
    "fit_log_variance",
    "VarianceProposal",
    "variance_proposal",
    "SimpleModelTraceChain",
]

# The compressed chain is trace-class only from three groups up; the
# estimator machinery refuses smaller data sets.
MIN_GROUPS_FOR_TRACE = 3

# The proposal for A* is the defensive mixture of the prior and a component
# fitted to the data once the prior's standard deviation of log A exceeds the
# fitted one by this factor; below it the prior alone is the proposal.  With
# A1V1 data the ratio is 2-3.6 at n = 100, 7.7-10.3 at 1e3 and 27-29.5 at
# 1e4.  The mixture loses at n = 100, is mixed at 1e3 (high_variance rows at
# l = 2) and wins clearly from ~3e3 on (README, "The proposal for A*").
MIXTURE_MIN_SPREAD_RATIO = 12.0
# Share of prior draws in the mixture; it bounds each weight by 1/share
# times the prior-proposal weight of the same draw.
DEFENSIVE_SHARE = 0.1
# The fitted component's spread of log A, in units of the fitted sd, as
# `ar1_matched_proposal_sd` overdisperses the oracle's proposal.
FIT_INFLATION = 1.5


def _require_trace_class(d: DataSummary) -> None:
    if d.r != 1:
        raise ValueError(
            f"the compressed-state path is for unreplicated data (r=1), got r={d.r}"
        )
    if d.n < MIN_GROUPS_FOR_TRACE:
        raise ValueError(
            f"the compressed chain's operator is trace-class only for "
            f"n >= {MIN_GROUPS_FOR_TRACE} groups, got n={d.n}"
        )


def aux_location_variance(A, d: DataSummary, h: Hyperparams):
    """Variance of the auxiliary location proposal given A: (A+V)(A+4V)/(nA),
    divided before multiplying because the product overflows for A near 1e300."""
    V = h.V
    with named_overflow("the auxiliary location variance (A + V)(A + 4V)/(nA)", n=d.n, V=V):
        return (A + V) / A * (A + 4.0 * V) / d.n


def _trigamma(x: float) -> float:
    """psi_1(x), the variance of log G for G ~ Gamma(x): the recurrence up to
    x >= 10, then the asymptotic series (relative error below 1e-11)."""
    acc = 0.0
    while x < 10.0:
        acc += 1.0 / x / x
        x += 1.0
    r = 1.0 / (x * x)
    return acc + 1.0 / x + r / 2.0 + r / x * (1.0 / 6.0 - r * (1.0 / 30.0 - r * (1.0 / 42.0 - r / 30.0)))


def fit_log_variance(d: DataSummary, h: Hyperparams) -> tuple[float, float] | None:
    """Laplace fit of t = log A under its marginal posterior (mu and the
    effects integrated out), whose log density is, up to a constant,

        f(t) = -a t - b e^-t - (n-1)/2 log(e^t + V) - delta / (2 (e^t + V)).

    Returns the mode t0 and the precision -f''(t0), found by Newton steps on
    the score f' that fall back to bisection when they leave the bracket.
    The score is positive for small t and negative for large t, so a mode
    exists; None when it lies outside |t| < 700, where e^t overflows.
    """
    a, b, V, delta, m = h.a, h.b, h.V, d.delta, (d.n - 1) / 2.0

    def derivatives(t: float) -> tuple[float, float]:
        A, E = math.exp(t), math.exp(-t)
        s = A + V
        p = A / s
        score = -a + b * E - m * p + delta * p / (2.0 * s)
        curvature = -b * E - m * p * (1.0 - p) + delta * p * (1.0 - 2.0 * p) / (2.0 * s)
        return score, curvature

    lo, hi = -700.0, 700.0
    if not derivatives(lo)[0] > 0.0 > derivatives(hi)[0]:
        return None
    # Start at the mode the posterior would have if V were 0.  A Newton step
    # is taken only when it stays inside the bracket and is at most half the
    # step before, so the bracket shrinks at least geometrically.
    t = min(max(math.log(b + delta / 2.0) - math.log(a + m), lo), hi)
    last = hi - lo
    for _ in range(200):
        score, curvature = derivatives(t)
        step = -score / curvature if curvature < 0.0 else math.inf
        if abs(step) <= 1e-13 * max(1.0, abs(t)):
            break
        if score > 0.0:
            lo = t
        else:
            hi = t
        if not (lo < t + step < hi and abs(step) <= 0.5 * last):
            step = 0.5 * (lo + hi) - t
        t += step
        last = step
    return t, -derivatives(t)[1]


@dataclass(frozen=True)
class VarianceProposal:
    """The proposal for A*: eps*IG(a, b) + (1 - eps)*IG(alpha, beta), the
    prior IG(a, b) alone when eps = 1 (alpha and beta are then None).

    t0 is the Laplace fit's mode of log A and spread_ratio the prior's
    standard deviation of log A over the fit's (None without a fit); the
    mixture runs when spread_ratio >= MIXTURE_MIN_SPREAD_RATIO.
    """

    eps: float
    alpha: float | None = None
    beta: float | None = None
    t0: float | None = None
    spread_ratio: float | None = None

    @property
    def kind(self) -> str:
        return "prior" if self.eps == 1.0 else "mixture"


def variance_proposal(d: DataSummary, h: Hyperparams) -> VarianceProposal:
    """The A* proposal for this data: the defensive mixture with the fitted
    component IG(alpha, beta), alpha = 1/(FIT_INFLATION sigma)^2 and
    beta = e^t0 (alpha + 1) (so its mode is e^t0), where the fit is narrow
    enough; the prior otherwise."""
    fit = fit_log_variance(d, h)
    if fit is None:
        return VarianceProposal(eps=1.0)
    t0, precision = fit
    ratio = math.sqrt(_trigamma(h.a) * max(precision, 0.0))
    if ratio < MIXTURE_MIN_SPREAD_RATIO:
        return VarianceProposal(eps=1.0, t0=t0, spread_ratio=ratio)
    # beta stays near (b + delta/2)/FIT_INFLATION^2, so it is finite.
    alpha = precision / FIT_INFLATION**2
    return VarianceProposal(DEFENSIVE_SHARE, alpha, math.exp(t0) * (alpha + 1.0), t0, ratio)


class SimpleModelTraceChain:
    """Trace-chain adapter for the compressed simple-model sampler.

    `draw_log_weights` draws (mu*, A*) from the auxiliary proposal (A* from
    `self.proposal`, mu* normal around y_bar with `aux_location_variance`),
    draws the chain state from the effect conditional at (mu*, A*) and
    advances it by Gibbs steps.  The log weight is the (mu, A) block
    conditional given the current state over the proposal density, both at
    the original (mu*, A*).  All replicate states advance together as
    vectors, so a replicate costs a handful of vectorized draws regardless
    of n.  One
    trajectory of L-1 Gibbs steps gives the weights of every l <= L, because
    the weight for l uses only the original (mu*, A*) and the state after
    l-1 steps; row l-1 equals, bit for bit, the single-l run on the same
    stream.
    """

    def __init__(self, d: DataSummary, h: Hyperparams):
        _require_trace_class(d)
        self.data = d
        self.hyper = h
        self.proposal = variance_proposal(d, h)

    def _batch_stats(self, mu, A, rng, ws: Workspace):
        """One draw of the compressed state (theta_bar, ss) given (mu, A), into
        the workspace's "theta_bar" and "ss" arrays:

            cond_var = A V / (A + V)
            theta_bar = (V mu + A y_bar) / (A + V) + sqrt(cond_var / n) Z
            ss = cond_var X,  X ~ chi2'(n - 1, A delta / (2 V (A + V)))

        with each product and quotient in that order, as numpy would
        evaluate the expressions."""
        d, V = self.data, self.hyper.V
        shape = np.shape(A)
        s = np.add(A, V, out=ws.array("A+V", shape))
        cond_var = ws.array("cond_var", shape)
        with named_overflow("the conditional variance A V/(A + V)", n=d.n, V=V):
            np.divide(np.multiply(A, V, out=cond_var), s, out=cond_var)
        theta_bar, tmp = ws.array("theta_bar", shape), ws.array("tmp", shape)
        with named_overflow("the conditional mean (V mu + A y_bar)/(A + V)", n=d.n, V=V):
            np.add(np.multiply(V, mu, out=theta_bar), np.multiply(A, d.y_bar, out=tmp), out=theta_bar)
            np.divide(theta_bar, s, out=theta_bar)
        np.sqrt(np.divide(cond_var, d.n, out=tmp), out=tmp)
        np.add(theta_bar, np.multiply(tmp, rng.standard_normal(out=ws.array("z", shape)), out=tmp),
               out=theta_bar)
        with named_overflow("the noncentrality A delta / (2 V (A + V))", n=d.n, delta=d.delta, V=V):
            phi = np.divide(np.multiply(A, d.delta, out=tmp), np.multiply(2.0 * V, s, out=s), out=tmp)
        try:
            x = noncentral_chisq_sample(d.n - 1, phi, rng, out=ws.array("ss", shape))
        except ValueError:
            raise ValueError(f"the noncentrality A delta / (2 V (A + V)) reaches {np.max(phi):.4g} at n = {d.n}, "
                             f"delta = {d.delta:.4g}, V = {V:.4g}, past the Poisson sampler's ~9.2e18") from None
        return theta_bar, np.multiply(cond_var, x, out=x)

    def _draw_variance(self, size: int, rng: np.random.Generator, ws: Workspace):
        """`size` draws of A* and their log proposal density.  The prior
        proposal draws no component uniform, so below the switch the stream
        is the one a prior-only estimator draws."""
        h, q = self.hyper, self.proposal
        A = ws.array("A_star", (size,))
        if q.eps == 1.0:
            invgamma_sample(h.a, h.b, rng, out=A)
            return A, invgamma_log_pdf(A, h.a, h.b)
        prior = rng.random(size) < q.eps
        invgamma_sample(np.where(prior, h.a, q.alpha), np.where(prior, h.b, q.beta), rng, out=A)
        return A, np.logaddexp(
            math.log(q.eps) + invgamma_log_pdf(A, h.a, h.b),
            math.log1p(-q.eps) + invgamma_log_pdf(A, q.alpha, q.beta),
        )

    def draw_log_weights(
        self, L: int, size: int, rng: np.random.Generator, *, workspace: Workspace | None = None
    ) -> np.ndarray:
        if L < 1:
            raise ValueError(f"L must be >= 1, got {L}")
        d, h = self.data, self.hyper
        ws = workspace or Workspace()
        vec = (size,)
        # A Gamma draw of 0 (a tiny a) makes A* inf, and 1/b = inf (a subnormal b) makes it 0.
        with named_overflow("the A* draw", n=d.n, a=h.a, b=h.b):
            A_star, den_ig = self._draw_variance(size, rng, ws)
        aux_var = aux_location_variance(A_star, d, h)
        mu_star = np.sqrt(aux_var, out=ws.array("mu_star", vec))
        np.add(d.y_bar, np.multiply(mu_star, rng.standard_normal(out=ws.array("z", vec)), out=mu_star),
               out=mu_star)
        theta_bar, ss = self._batch_stats(mu_star, A_star, rng, ws)
        shape_post = h.a + (d.n - 1) / 2.0
        den_n = normal_log_pdf(mu_star, d.y_bar, aux_var, out=ws.array("den_n", vec))
        # The numerator is invgamma_log_pdf(A*, shape_post, scale) +
        # normal_log_pdf(mu*, theta_bar, A*/n) written out, with the terms
        # that stay fixed along the trajectory computed once; every
        # expression keeps the kernels' evaluation order, so the rows equal
        # the kernel calls bit for bit.  The row's IG scale is also the next
        # step's conditional scale.  Row i is
        #   shape_post log(scale) - log Gamma(shape_post) - (shape_post + 1) log A* - scale / A*
        #   + -0.5 (log(2 pi A*/n) + (mu* - theta_bar)^2 / (A*/n)) - den_ig - den_n.
        log_gamma = math.lgamma(shape_post)
        ig_log_x = np.log(A_star, out=ws.array("ig_log_x", vec))
        np.multiply(shape_post + 1.0, ig_log_x, out=ig_log_x)
        var_mu = np.divide(A_star, d.n, out=ws.array("var_mu", vec))
        log_norm = np.multiply(2.0 * np.pi, var_mu, out=ws.array("log_norm", vec))
        np.log(log_norm, out=log_norm)
        A, mu, tmp = ws.array("A", vec), ws.array("mu", vec), ws.array("tmp", vec)
        out = ws.array("logw", (L, size))
        for i in range(L):
            if i:  # A ~ IG(shape_post, scale), mu = theta_bar + sqrt(A / n) Z, new state
                invgamma_sample(shape_post, scale, rng, out=A)
                np.sqrt(np.divide(A, d.n, out=mu), out=mu)
                np.add(theta_bar, np.multiply(mu, rng.standard_normal(out=ws.array("z", vec)), out=mu),
                       out=mu)
                theta_bar, ss = self._batch_stats(mu, A, rng, ws)
            scale = np.add(h.b, np.divide(ss, 2.0, out=ss), out=ss)
            row = out[i]
            np.multiply(shape_post, np.log(scale, out=row), out=row)
            np.subtract(np.subtract(row, log_gamma, out=row), ig_log_x, out=row)
            np.subtract(row, np.divide(scale, A_star, out=tmp), out=row)
            num_n = np.square(np.subtract(mu_star, theta_bar, out=tmp), out=tmp)
            num_n = np.multiply(-0.5, np.add(log_norm, np.divide(num_n, var_mu, out=tmp), out=tmp), out=tmp)
            np.subtract(np.subtract(np.add(row, num_n, out=row), den_ig, out=row), den_n, out=row)
        return out
