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

import numpy as np

from .distributions import (
    invgamma_log_pdf,
    invgamma_sample,
    noncentral_chisq_sample,
    normal_log_pdf,
)
from .model_core import DataSummary, Hyperparams

__all__ = [
    "aux_location_variance",
    "SimpleModelTraceChain",
]

# The compressed chain is trace-class only from three groups up; the
# estimator machinery refuses smaller data sets.
MIN_GROUPS_FOR_TRACE = 3


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
    return (A + V) / A * (A + 4.0 * V) / d.n


class SimpleModelTraceChain:
    """Trace-chain adapter for the compressed simple-model sampler.

    `draw_log_weights` draws (mu*, A*) from the auxiliary proposal (A* from
    the variance prior, mu* normal around y_bar with
    `aux_location_variance`), draws the chain state from the effect
    conditional at (mu*, A*) and advances it by Gibbs steps.  The log weight
    is the (mu, A) block conditional given the current state over the
    proposal density, both at the original (mu*, A*).  All replicate states
    advance together as vectors, so a replicate costs a handful of
    vectorized draws regardless of n.  One
    trajectory of L-1 Gibbs steps gives the weights of every l <= L, because
    the weight for l uses only the original (mu*, A*) and the state after
    l-1 steps; row l-1 equals, bit for bit, the single-l run on the same
    stream.
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

    def draw_log_weights(self, L: int, size: int, rng: np.random.Generator) -> np.ndarray:
        if L < 1:
            raise ValueError(f"L must be >= 1, got {L}")
        d, h = self.data, self.hyper
        A_star = invgamma_sample(h.a, h.b, rng, size=size)
        aux_var = aux_location_variance(A_star, d, h)
        mu_star = d.y_bar + np.sqrt(aux_var) * rng.standard_normal(size)
        theta_bar, ss = self._batch_stats(mu_star, A_star, rng)
        shape_post = h.a + (d.n - 1) / 2.0
        den_ig = invgamma_log_pdf(A_star, h.a, h.b)
        den_n = normal_log_pdf(mu_star, d.y_bar, aux_var)
        out = np.empty((L, size))
        for i in range(L):
            if i:
                A = invgamma_sample(shape_post, h.b + ss / 2.0, rng)
                mu = theta_bar + np.sqrt(A / d.n) * rng.standard_normal(size)
                theta_bar, ss = self._batch_stats(mu, A, rng)
            out[i] = (
                invgamma_log_pdf(A_star, shape_post, h.b + ss / 2.0)
                + normal_log_pdf(mu_star, theta_bar, A_star / d.n)
                - den_ig
                - den_n
            )
        return out
