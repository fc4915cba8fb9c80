"""Scalar reference chain for the simple model, kept as a test oracle.

It runs the compressed two-block sampler one replicate at a time on plain
floats, calling the same `distributions` kernels as the batched
`SimpleModelTraceChain` and writing the conditional laws out inline;
`draw_theta_full` draws the full effect vector, the independent oracle for
the compressed draw.  The model types already guarantee a, b, V, A > 0,
ss >= 0 and n >= 2, so every shape, scale and variance below is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gibbsgap.distributions import (
    invgamma_log_pdf,
    invgamma_sample,
    noncentral_chisq_sample,
    normal_log_pdf,
)
from gibbsgap.model_core import DataSummary, Hyperparams
from gibbsgap.simple_gibbs import _require_trace_class, aux_location_variance


@dataclass(frozen=True)
class ThetaStats:
    """Compressed chain state: mean of the random effects and their sum of
    squared deviations from that mean."""

    theta_bar: float
    ss: float

    def __post_init__(self):
        if self.ss < 0:
            raise ValueError(f"ss must be >= 0, got {self.ss}")


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
