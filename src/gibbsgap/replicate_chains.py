"""Random mappings, contraction rates, and Wasserstein machinery for the
replicated-model Gibbs chains.

Two chains, both driven by the same noise element (one Gamma draw J and
n+1 iid standard normals):

* flat location prior: state eta = (eta_0, ..., eta_n), where eta_0 is the
  scaled location and eta_1..eta_n are centered effects;
* shrinkage location prior: state beta = (beta_1, ..., beta_n), the
  centered effects, with the location integrated into the mapping.

Feeding the SAME noise to two copies of a mapping couples them exactly;
`contraction_check` measures E||f(x)-f(y)|| / ||x-y|| under that coupling
and compares it against the closed-form rates `gamma_flat`/`gamma_shrink`.
A rate below 1 turns into an explicit Wasserstein decay via
`wasserstein_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model_core import DataSummary, Hyperparams

__all__ = [
    "ContractionReport",
    "CxEstimate",
    "draw_noise",
    "eta_map",
    "beta_map",
    "shrink_location",
    "start_state",
    "gamma_flat",
    "gamma_shrink",
    "contraction_check",
    "estimate_cx",
    "wasserstein_bound",
]

# A finite sample of pairs cannot certify the every-pair contraction
# premise; reports carry this caveat verbatim.
PAIR_CHECK_CAVEAT = (
    "sampled-pair check: consistent with, but not a certificate of, the "
    "every-pair contraction property"
)


@dataclass(frozen=True)
class ContractionReport:
    """Outcome of a sampled-pair contraction check.

    gamma_empirical_mean averages the per-pair mean contraction ratios; a
    pair counts as a violation when its mean ratio exceeds gamma_formula by
    more than 3 of its standard errors.
    """

    gamma_formula: float
    gamma_empirical_mean: float
    gamma_empirical_ci_halfwidth: float
    pairs_tested: int
    violations: int
    note: str = PAIR_CHECK_CAVEAT

    def __post_init__(self):
        if self.violations > self.pairs_tested:
            raise ValueError("violations cannot exceed pairs_tested")


@dataclass(frozen=True)
class CxEstimate:
    """Monte Carlo estimate of the expected one-step displacement c(x)."""

    mean: float
    se: float


def draw_noise(n: int, h: Hyperparams, size: int, rng: np.random.Generator):
    """`size` noise elements, each J ~ Gamma(a + n/2, rate 1) and n+1 iid
    standard normals: returns j of shape (size,) and z of shape (size, n+1).
    Fed to two states, one element couples the chain copies."""
    j = rng.gamma(h.a + n / 2.0, 1.0, size)
    z = rng.standard_normal((size, n + 1))
    return j, z


# ---------------------------------------------------------------------------
# Mappings: deterministic in (state, noise), chain kernel marginally.  They
# broadcast state (..., dim) against noise (j: (...), z: (..., n+1)).
# ---------------------------------------------------------------------------

def _checked(state, j, z, dim: int, n: int):
    state = np.asarray(state, dtype=float)
    j = np.asarray(j, dtype=float)
    z = np.asarray(z, dtype=float)
    if state.shape[-1:] != (dim,):
        raise ValueError(f"state must have length {dim}")
    if z.shape[-1:] != (n + 1,):
        raise ValueError(f"noise must carry n+1 = {n + 1} normals")
    if not np.all(np.isfinite(state)):
        raise ValueError("state entries must be finite")
    if not np.all(j > 0):
        raise ValueError("J must be > 0")
    return state, j, z


def eta_map(eta, j, z, d: DataSummary, h: Hyperparams):
    """Flat-prior mapping of the state eta = (eta_0, ..., eta_n): with
    B = J/(b + ss/2) ~ Gamma(a + n/2, rate b + ss/2), ss the effects' sum of
    squares, eta_0 ~ Normal(sqrt(n)*y_bar, (B + rU)/(rU*B)) and then
    eta_i ~ Normal(rU/(B + rU)*(group_mean_i - eta_0/sqrt(n)), 1/(B + rU))."""
    eta, j, z = _checked(eta, j, z, d.n + 1, d.n)
    rU = d.r * h.U
    sqrt_n = math.sqrt(d.n)
    ss = 0.5 * np.sum(np.square(eta[..., 1:]), axis=-1)
    B = j / (h.b + ss)
    denom = B + rU
    eta0 = sqrt_n * d.y_bar + np.sqrt(denom / (rU * B)) * z[..., 0]
    rest = (rU / denom)[..., None] * (
        d.group_means - eta0[..., None] / sqrt_n
    ) + z[..., 1:] / np.sqrt(denom)[..., None]
    return np.concatenate([eta0[..., None], rest], axis=-1)


def shrink_location(beta_bar, noise0, d: DataSummary, h: Hyperparams):
    """Location update of the shrinkage mapping: a draw from
    Normal((nrU(y_bar - beta_bar) + z*w)/(nrU + z), 1/(nrU + z)) driven by
    the standard normal `noise0`."""
    sh = h.require_shrinkage()
    nrU = d.n * d.r * h.U
    return (nrU * (d.y_bar - beta_bar) + sh.z * sh.w) / (nrU + sh.z) + noise0 / math.sqrt(
        nrU + sh.z
    )


def beta_map(beta, j, z, d: DataSummary, h: Hyperparams):
    """Shrinkage-prior mapping of the state beta = (beta_1, ..., beta_n): B
    as in `eta_map`, the location mu from `shrink_location`, then
    beta_i ~ Normal(rU/(B + rU)*(group_mean_i - mu), 1/(B + rU))."""
    beta, j, z = _checked(beta, j, z, d.n, d.n)
    rU = d.r * h.U
    ss = 0.5 * np.sum(np.square(beta), axis=-1)
    B = j / (h.b + ss)
    mu = shrink_location(np.mean(beta, axis=-1), z[..., 0], d, h)
    denom = B + rU
    return (rU / denom)[..., None] * (d.group_means - mu[..., None]) + z[
        ..., 1:
    ] / np.sqrt(denom)[..., None]


def start_state(map_fn, d: DataSummary) -> np.ndarray:
    """Data-driven state of a mapping's chain, where pairs are sampled and
    c(x) is measured: (sqrt(n)*y_bar, 0, ..., 0) for `eta_map`, zeros for
    `beta_map`."""
    if map_fn is eta_map:
        return np.concatenate([[math.sqrt(d.n) * d.y_bar], np.zeros(d.n)])
    if map_fn is beta_map:
        return np.zeros(d.n)
    raise ValueError("map must be eta_map or beta_map")


# ---------------------------------------------------------------------------
# Closed-form contraction rates.  Returned unclamped even above 1, so the
# caller can see exactly when an (n, r) regime stops contracting.
# ---------------------------------------------------------------------------

def gamma_flat(n: int, r: int, d: DataSummary, h: Hyperparams) -> float:
    """Contraction rate of the flat-prior mapping.

    Only delta_prime is read from `d`; n and r are free so the rate can be
    scanned over regimes without materializing data of that size.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    a, b, U = h.a, h.b, h.U
    t1 = (d.delta_prime / n) * n * (2 * a + n) * (2 * a + n + 2) / (
        2.0 * (r * U) ** 2 * b**3
    )
    t2 = n / (2.0 * b * r * U)
    t3 = 11.0 / (2.0 * a + n - 2.0)
    return math.sqrt(t1 + t2 + t3)


def gamma_shrink(n: int, r: int, d: DataSummary, h: Hyperparams) -> float:
    """Contraction rate of the shrinkage-prior mapping.

    Reads delta_prime and y_bar from `d` and (w, z) from the hyperparams.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    sh = h.require_shrinkage()
    a, b, U = h.a, h.b, h.U
    r2U2 = (r * U) ** 2
    inner = (
        4.0 * d.delta_prime / (b**3 * r2U2)
        + 32.0 / (b**2 * r2U2)
        + 16.0 * n * (sh.w - d.y_bar) ** 2 / (b**3 * r2U2)
        + 2.0 / (b**3 * (r * U) ** 3)
    )
    # (2*n*r*U/z)**2 rather than 4 n^2 (rU)^2 / z^2: huge shrinkage
    # precisions would overflow in the squared denominator.
    return math.sqrt(
        (2 * a + n + 2) ** 2 / 4.0 * inner
        + (2.0 * n * r * U / sh.z) ** 2
        + n / (2.0 * b * r * U)
    )


# ---------------------------------------------------------------------------
# Empirical coupling checks.
# ---------------------------------------------------------------------------

# Closed-form contraction rate of each mapping.
_RATES = {eta_map: gamma_flat, beta_map: gamma_shrink}


def contraction_check(
    map_fn,
    n: int,
    r: int,
    d: DataSummary,
    h: Hyperparams,
    num_pairs: int,
    reps_per_pair: int,
    rng: np.random.Generator,
    pair_sampler=None,
) -> ContractionReport:
    """Estimate the coupled contraction ratio over sampled state pairs.

    For each pair (x, y) the SAME noise drives both copies, replicated
    `reps_per_pair` times; the per-pair mean of ||f(x)-f(y)|| / ||x-y|| is
    compared against the closed-form rate.  Coincident pairs (x == y) are
    skipped: the ratio is undefined there (the coupling makes the distance
    identically zero).

    The default pair sampler draws each coordinate iid standard normal
    around the data-driven center; the contraction property itself is a
    statement about every pair, which no finite sample certifies (see the
    report's note).
    """
    if num_pairs < 1 or reps_per_pair < 1:
        raise ValueError("num_pairs and reps_per_pair must be >= 1")
    if d.n != n or d.r != r:
        raise ValueError(
            f"data summary is for (n={d.n}, r={d.r}), expected (n={n}, r={r})"
        )
    center = start_state(map_fn, d)
    dim = center.size
    gamma = _RATES[map_fn](n, r, d, h)
    if pair_sampler is None:
        def pair_sampler(gen):
            return center + gen.standard_normal(dim), center + gen.standard_normal(dim)

    means = []
    violations = 0
    for _ in range(num_pairs):
        x, y = pair_sampler(rng)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dist = float(np.linalg.norm(x - y))
        if dist == 0.0:
            continue
        j, z = draw_noise(n, h, reps_per_pair, rng)
        fx = map_fn(x, j, z, d, h)
        fy = map_fn(y, j, z, d, h)
        ratios = np.linalg.norm(fx - fy, axis=-1) / dist
        m = float(np.mean(ratios))
        se = float(np.std(ratios, ddof=1) / math.sqrt(reps_per_pair)) if reps_per_pair > 1 else 0.0
        means.append(m)
        if m > gamma + 3.0 * se:
            violations += 1

    means_arr = np.asarray(means)
    tested = len(means)
    emp_mean = float(np.mean(means_arr)) if tested else 0.0
    halfwidth = (
        float(1.96 * np.std(means_arr, ddof=1) / math.sqrt(tested)) if tested > 1 else 0.0
    )
    return ContractionReport(
        gamma_formula=gamma,
        gamma_empirical_mean=emp_mean,
        gamma_empirical_ci_halfwidth=halfwidth,
        pairs_tested=tested,
        violations=violations,
    )


def estimate_cx(
    map_fn,
    x,
    d: DataSummary,
    h: Hyperparams,
    M: int,
    rng: np.random.Generator,
) -> CxEstimate:
    """Monte Carlo estimate of c(x) = E||x - f(x)||, with standard error."""
    if M < 2:
        raise ValueError(f"M must be >= 2, got {M}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be a single state vector")
    j, z = draw_noise(d.n, h, M, rng)
    fx = map_fn(x, j, z, d, h)
    dists = np.linalg.norm(x - fx, axis=-1)
    return CxEstimate(
        mean=float(np.mean(dists)),
        se=float(np.std(dists, ddof=1) / math.sqrt(M)),
    )


def wasserstein_bound(c_x: float, gamma: float, m: int) -> float:
    """Geometric Wasserstein decay: c_x * gamma**m / (1 - gamma)."""
    if c_x < 0:
        raise ValueError(f"c_x must be >= 0, got {c_x}")
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"bound is vacuous unless 0 <= gamma < 1, got {gamma}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return c_x * gamma**m / (1.0 - gamma)
