"""Two-block Gibbs sampler for the simple random-effects model (one
observation per group), tracked through its compressed state.

The conditional law of (mu, A) given the effects depends on the effect
vector only through its mean and sum of squared deviations, so the chain is
run on `ThetaStats` instead of the full n-vector: one normal draw and one
noncentral chi-square draw per step, O(1) in n.  The full-vector path is
kept solely as the independent cross-check for that reduction.

This module also provides the importance weight and the auxiliary-sample
construction behind the eigenvalue-sum estimator, plus the batched adapter
class conforming to `spectral_estimator.TraceChainSpec`.  The scalar
functions (`draw_trace_sample`, `log_weight`, `gibbs_step`, ...) are the
reference the batched path is tested against; they call the same
`distributions` kernels on plain floats, with the conditional laws written
out inline.  The model types already guarantee a, b, V, A > 0, ss >= 0 and
n >= 2, so every shape, scale and variance below is positive.
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
from .model_core import DataSummary, Hyperparams, ThetaStats

__all__ = [
    "MuA",
    "AuxSample",
    "draw_muA_given_theta",
    "draw_theta_stats",
    "draw_theta_full",
    "gibbs_step",
    "aux_location_variance",
    "draw_from_aux",
    "log_weight",
    "draw_trace_sample",
    "SimpleModelTraceChain",
]

# The compressed chain is trace-class only from three groups up; the
# estimator machinery refuses smaller data sets.
MIN_GROUPS_FOR_TRACE = 3


@dataclass(frozen=True)
class MuA:
    """One (location, variance) block state."""

    mu: float
    A: float

    def __post_init__(self):
        if not self.A > 0:
            raise ValueError(f"A must be > 0, got {self.A}")


@dataclass(frozen=True)
class AuxSample:
    """Output of one auxiliary draw: the proposal's (mu, A) paired with the
    chain state it led to."""

    mu_a: MuA
    theta_stats: ThetaStats


def draw_muA_given_theta(
    stats: ThetaStats, h: Hyperparams, n: int, rng: np.random.Generator
) -> MuA:
    """Exact draw from the (mu, A) block conditional: A first, from
    InverseGamma(a + (n-1)/2, b + ss/2), then mu | A ~ Normal(theta_bar, A/n)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    A = float(invgamma_sample(h.a + (n - 1) / 2.0, h.b + stats.ss / 2.0, rng))
    mu = float(stats.theta_bar + math.sqrt(A / n) * rng.standard_normal())
    return MuA(mu=mu, A=A)


def _require_simple(d: DataSummary) -> None:
    if d.r != 1:
        raise ValueError(
            f"the compressed-state path is for unreplicated data (r=1), got r={d.r}"
        )


def _require_trace_class(d: DataSummary) -> None:
    _require_simple(d)
    if d.n < MIN_GROUPS_FOR_TRACE:
        raise ValueError(
            f"the compressed chain's operator is trace-class only for "
            f"n >= {MIN_GROUPS_FOR_TRACE} groups, got n={d.n}"
        )


def draw_theta_stats(
    mu_a: MuA, d: DataSummary, h: Hyperparams, rng: np.random.Generator
) -> ThetaStats:
    """Draw the effect-block state directly in compressed form.

    theta_bar is normal with mean (V*mu + A*y_bar)/(A+V) and variance
    AV/(n(A+V)); independently, the sum of squares is AV/(A+V) times a
    noncentral chi-square with n-1 degrees of freedom and noncentrality
    A*delta / (2V(A+V)).
    """
    _require_simple(d)
    A, mu, V = mu_a.A, mu_a.mu, h.V
    cond_var = A * V / (A + V)
    theta_bar = (V * mu + A * d.y_bar) / (A + V) + math.sqrt(
        cond_var / d.n
    ) * rng.standard_normal()
    phi = A * d.delta / (2.0 * V * (A + V))
    x = noncentral_chisq_sample(d.n - 1, phi, rng)
    return ThetaStats(theta_bar=float(theta_bar), ss=float(cond_var * x))


def draw_theta_full(
    mu_a: MuA, y: np.ndarray, h: Hyperparams, rng: np.random.Generator
) -> np.ndarray:
    """Draw the full effect vector: n independent normals.

    Retained only as the independent oracle for `draw_theta_stats`.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] < 2:
        raise ValueError("y must be a vector of at least 2 observations")
    A, mu, V = mu_a.A, mu_a.mu, h.V
    mean = (V * mu + A * y) / (A + V)
    sd = math.sqrt(A * V / (A + V))
    return mean + sd * rng.standard_normal(y.shape[0])


def gibbs_step(
    stats: ThetaStats, d: DataSummary, h: Hyperparams, rng: np.random.Generator
) -> ThetaStats:
    """One transition of the effect-marginal chain."""
    mu_a = draw_muA_given_theta(stats, h, d.n, rng)
    return draw_theta_stats(mu_a, d, h, rng)


# ---------------------------------------------------------------------------
# Auxiliary proposal over (mu, A) and the importance weight.
# ---------------------------------------------------------------------------

def aux_location_variance(A, d: DataSummary, h: Hyperparams):
    """Variance of the auxiliary location proposal given A: (A+V)(A+4V)/(nA),
    divided before multiplying because the product overflows for A near 1e300."""
    V = h.V
    return (A + V) / A * (A + 4.0 * V) / d.n


def draw_from_aux(d: DataSummary, h: Hyperparams, rng: np.random.Generator) -> MuA:
    """Draw (mu, A) from the auxiliary proposal: A from the variance prior,
    then mu normal around y_bar with `aux_location_variance`."""
    A = float(invgamma_sample(h.a, h.b, rng))
    mu = float(d.y_bar + math.sqrt(aux_location_variance(A, d, h)) * rng.standard_normal())
    return MuA(mu=mu, A=A)


def log_weight(s: AuxSample, d: DataSummary, h: Hyperparams) -> float:
    """Log of the target-to-auxiliary density ratio at an auxiliary sample.

    Numerator: the (mu, A) block conditional given the sample's chain state.
    Denominator: the auxiliary proposal density.  Both factorize into an
    inverse-gamma term in A and a normal term in mu.
    """
    A, mu = s.mu_a.A, s.mu_a.mu
    st = s.theta_stats
    num = invgamma_log_pdf(A, h.a + (d.n - 1) / 2.0, h.b + st.ss / 2.0) + normal_log_pdf(
        mu, st.theta_bar, A / d.n
    )
    den = invgamma_log_pdf(A, h.a, h.b) + normal_log_pdf(
        mu, d.y_bar, aux_location_variance(A, d, h)
    )
    return float(num - den)


def draw_trace_sample(
    l: int, d: DataSummary, h: Hyperparams, rng: np.random.Generator
) -> AuxSample:
    """Draw one auxiliary-weighted sample for the eigenvalue-sum estimator.

    (mu*, A*) comes from the auxiliary proposal; the chain state is drawn
    from the effect conditional at (mu*, A*) and then advanced l-1 Gibbs
    steps.  The returned sample keeps the ORIGINAL (mu*, A*).
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    _require_trace_class(d)
    mu_a = draw_from_aux(d, h, rng)
    stats = draw_theta_stats(mu_a, d, h, rng)
    for _ in range(l - 1):
        stats = gibbs_step(stats, d, h, rng)
    return AuxSample(mu_a=mu_a, theta_stats=stats)


class SimpleModelTraceChain:
    """Trace-chain adapter for the compressed simple-model sampler.

    `draw_log_weights` is the batched form of `draw_trace_sample` followed
    by `log_weight`: all replicate states advance together as vectors, so a
    replicate costs a handful of vectorized draws regardless of n.
    """

    def __init__(self, d: DataSummary, h: Hyperparams):
        _require_trace_class(d)
        self.data = d
        self.hyper = h

    def _batch_stats(self, mu, A, rng):
        d, h = self.data, self.hyper
        V = h.V
        cond_var = A * V / (A + V)
        theta_bar = (V * mu + A * d.y_bar) / (A + V) + np.sqrt(
            cond_var / d.n
        ) * rng.standard_normal(np.shape(A))
        phi = A * d.delta / (2.0 * V * (A + V))
        x = noncentral_chisq_sample(d.n - 1, phi, rng)
        return theta_bar, cond_var * x

    def draw_log_weights(self, l: int, size: int, rng: np.random.Generator) -> np.ndarray:
        if l < 1:
            raise ValueError(f"l must be >= 1, got {l}")
        d, h = self.data, self.hyper
        A_star = invgamma_sample(h.a, h.b, rng, size=size)
        aux_var = aux_location_variance(A_star, d, h)
        mu_star = d.y_bar + np.sqrt(aux_var) * rng.standard_normal(size)
        theta_bar, ss = self._batch_stats(mu_star, A_star, rng)
        shape_post = h.a + (d.n - 1) / 2.0
        for _ in range(l - 1):
            A = invgamma_sample(shape_post, h.b + ss / 2.0, rng)
            mu = theta_bar + np.sqrt(A / d.n) * rng.standard_normal(size)
            theta_bar, ss = self._batch_stats(mu, A, rng)
        return (
            invgamma_log_pdf(A_star, shape_post, h.b + ss / 2.0)
            + normal_log_pdf(mu_star, theta_bar, A_star / d.n)
            - invgamma_log_pdf(A_star, h.a, h.b)
            - normal_log_pdf(mu_star, d.y_bar, aux_var)
        )
