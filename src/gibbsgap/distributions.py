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

import numpy as np
from scipy.special import gammaln

__all__ = [
    "invgamma_sample",
    "noncentral_chisq_sample",
    "normal_log_pdf",
    "invgamma_log_pdf",
]


# ---------------------------------------------------------------------------
# Sampling kernels.
# ---------------------------------------------------------------------------

def invgamma_sample(shape, scale, rng: np.random.Generator, size=None):
    """InverseGamma(shape, scale) as the reciprocal of one Gamma draw.

    numpy's gamma generator uses Marsaglia-Tang squeeze rejection with the
    ``U**(1/shape)`` boost below shape 1, so every shape > 0 is exact.
    """
    return 1.0 / rng.gamma(shape, 1.0 / np.asarray(scale, dtype=float), size=size)


def noncentral_chisq_sample(df, noncentrality, rng: np.random.Generator, size=None):
    """Noncentral chi-square via the exact Poisson mixture.

    ``M ~ Poisson(noncentrality)`` then ``ChiSq(df + 2M)`` (see the module
    docstring for the half-shift convention).  Exact for every
    noncentrality; the Poisson step relies on numpy's transformed-rejection
    sampler, which stays exact for the very large means that show up when
    the noncentrality grows with the data size.
    """
    m = rng.poisson(np.asarray(noncentrality, dtype=float), size=size)
    return rng.chisquare(df + 2.0 * m)


# ---------------------------------------------------------------------------
# Log densities.  Fully normalized, natural log.  Out-of-support points
# return -inf rather than raising.  Everything goes through log-Gamma; the
# Gamma function itself would overflow for the shapes ~ n/2 seen at large n.
# ---------------------------------------------------------------------------

def normal_log_pdf(x, mean, variance):
    x = np.asarray(x, dtype=float)
    return -0.5 * (np.log(2.0 * np.pi * variance) + (x - mean) ** 2 / variance)


def invgamma_log_pdf(x, shape, scale):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        logx = np.log(x)
        out = shape * np.log(scale) - gammaln(shape) - (shape + 1.0) * logx - scale / x
    return np.where(x > 0, out, -np.inf)
