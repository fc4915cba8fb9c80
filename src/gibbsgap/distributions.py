"""Exact samplers and normalized log densities for the distribution families
used by the Gibbs chains.  Every kernel takes and returns numpy arrays (or
plain floats); parameters are passed explicitly and assumed valid, since the
model types that produce them already enforce positivity.

Parameter conventions (fixed here once, to kill the usual ambiguities):

* ``Normal(mean, variance)`` is parametrized by its variance, not its
  standard deviation.
* ``InverseGamma(shape, scale)`` has density proportional to
  ``x**(-shape-1) * exp(-scale/x)``; it is the law of ``1/X`` for
  ``X ~ Gamma(shape, rate=scale)``.
* ``NoncentralChiSq(df, noncentrality)`` is the Poisson mixture of central
  chi-squares: ``M ~ Poisson(noncentrality)`` then ``ChiSq(df + 2M)``.  The
  noncentrality here is HALF the usual sum-of-squared-shifts parameter, so
  the mean is ``df + 2*noncentrality`` and the variance
  ``2*df + 8*noncentrality``.

All evaluators are stateless; samplers take an explicit
``numpy.random.Generator``.  Concurrent use is safe as long as each task owns
its own generator.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "invgamma_sample",
    "noncentral_chisq_sample",
    "normal_log_pdf",
    "invgamma_log_pdf",
]


# ---------------------------------------------------------------------------
# Sampling kernels.
# ---------------------------------------------------------------------------

def invgamma_sample(shape, scale, rng: np.random.Generator, size=None, out=None):
    """InverseGamma(shape, scale) as the reciprocal of one Gamma draw,
    written into `out` when given.

    numpy's gamma generator uses Marsaglia-Tang squeeze rejection with the
    ``U**(1/shape)`` boost below shape 1, so every shape > 0 is exact.
    ``standard_gamma(shape) * (1/scale)`` is numpy's ``gamma(shape, 1/scale)``
    bit for bit, without gamma's broadcast of an array scale.
    """
    if size is None and out is None:
        size = np.broadcast_shapes(np.shape(shape), np.shape(scale)) or None
    draws = rng.standard_gamma(shape, size=size, out=out)
    draws = np.multiply(draws, 1.0 / np.asarray(scale, dtype=float), out=out)
    return np.divide(1.0, draws, out=out)


def noncentral_chisq_sample(df, noncentrality, rng: np.random.Generator, size=None, out=None):
    """Noncentral chi-square via the exact Poisson mixture, written into
    `out` when given.

    ``M ~ Poisson(noncentrality)`` then ``ChiSq(df + 2M)`` (see the module
    docstring for the half-shift convention).  Exact for every
    noncentrality; the Poisson step relies on numpy's transformed-rejection
    sampler, which stays exact for the very large means that show up when
    the noncentrality grows with the data size.  The chi-square is drawn as
    ``2 * standard_gamma(k / 2)``, numpy's ``chisquare(k)`` bit for bit.
    """
    m = rng.poisson(np.asarray(noncentrality, dtype=float), size=size)
    half = np.add(df, np.multiply(2.0, m, out=out), out=out)
    half = np.divide(half, 2.0, out=out)
    return np.multiply(2.0, rng.standard_gamma(half, out=out), out=out)


# ---------------------------------------------------------------------------
# Log densities.  Fully normalized, natural log.  Out-of-support points
# return -inf rather than raising.  Everything goes through log-Gamma; the
# Gamma function itself would overflow for the shapes ~ n/2 seen at large n.
# ---------------------------------------------------------------------------

def normal_log_pdf(x, mean, variance, out=None):
    """Written into `out` when given, which may be `x` or `mean` (not
    `variance`)."""
    x = np.asarray(x, dtype=float)
    dev = np.square(np.subtract(x, mean, out=out), out=out)
    dev = np.add(np.log(2.0 * np.pi * variance), np.divide(dev, variance, out=out), out=out)
    return np.multiply(-0.5, dev, out=out)


def invgamma_log_pdf(x, shape, scale):
    """`x` and `scale` may be arrays; `shape` must be a scalar, since its
    log-Gamma comes from `math.lgamma`."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        logx = np.log(x)
        out = shape * np.log(scale) - math.lgamma(shape) - (shape + 1.0) * logx - scale / x
    return np.where(x > 0, out, -np.inf)
