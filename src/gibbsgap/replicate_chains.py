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

Both checks run on the noise's statistics, not on its n+1 normals.  A
mapping reads a state only through scalars (the effects' sum of squares,
and for `beta_map` their mean), and effect i of its output is
lift*(group_mean_i - center) + scale*z_i with scalars lift, center and
scale.  So the effect part of f(x) - f(y), or of x - f(x), is a vector of
span{1, group_means, x's effects} plus a scalar times z_{1:n}.  Its norm
needs only J, z_0, the k coordinates of z_{1:n} in an orthonormal basis of
that span (iid standard normal) and the squared norm of the rest of
z_{1:n} (chi-square with n - k degrees of freedom, exactly 0 when k = n).
Drawn from their exact law, they make a check cost O(reps) per pair, not
O(reps*n), in `Workspace` buffers a caller may keep ("t0", "t1": scratch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model_core import DataSummary, Hyperparams, Workspace, named_overflow

__all__ = [
    "ContractionReport",
    "CxEstimate",
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


# ---------------------------------------------------------------------------
# Mappings: deterministic in (state, noise), chain kernel marginally.  They
# broadcast state (..., dim) against noise (j: (...), z: (..., n+1)).
# ---------------------------------------------------------------------------

def _checked(state, dim: int):
    state = np.asarray(state, dtype=float)
    if state.shape[-1:] != (dim,):
        raise ValueError(f"state must have length {dim}")
    if not np.all(np.isfinite(state)):
        raise ValueError("state entries must be finite")
    return state


def _normals(z, n: int):
    z = np.asarray(z, dtype=float)
    if z.shape[-1:] != (n + 1,):
        raise ValueError(f"noise must carry n+1 = {n + 1} normals")
    return z


def _step(map_fn, state, j, z0, d: DataSummary, h: Hyperparams, workspace=None, side=""):
    """The scalars (head, lift, center, scale) of one step of `map_fn` from
    `state`, in `workspace` (fresh when None) under names prefixed `side`:
    head is `eta_map`'s location output (None for `beta_map`), and effect i
    of the output is lift*(group_mean_i - center) + scale*z_i."""
    located = map_fn is eta_map
    state = _checked(state, d.n + 1 if located else d.n)
    j = np.asarray(j, dtype=float)
    if not np.min(j, initial=math.inf) > 0:  # NaN fails too; no reps-length mask
        raise ValueError("J must be > 0")
    ws = workspace or Workspace()
    shape = np.broadcast_shapes(state.shape[:-1], j.shape, np.shape(z0))
    names = ("t0", "t1", side + "head", side + "center", side + "lift", side + "scale")
    B, denom, head, center, lift, scale = (ws.array(name, shape) for name in names)
    rU = d.r * h.U
    effects = state[..., 1:] if located else state
    np.divide(j, h.b + 0.5 * np.sum(np.square(effects), axis=-1), out=B)
    np.add(B, rU, out=denom)
    if located:
        sqrt_n = math.sqrt(d.n)
        # head = sqrt(n)*y_bar + sqrt(denom/(rU*B))*z0, the root built in B
        np.sqrt(np.divide(denom, np.multiply(B, rU, out=B), out=B), out=B)
        np.add(np.multiply(B, z0, out=B), sqrt_n * d.y_bar, out=head)
        np.divide(head, sqrt_n, out=center)
    else:
        head = None
        shrink_location(np.mean(state, axis=-1), z0, d, h, out=center)
    np.divide(rU, denom, out=lift)
    np.divide(1.0, np.sqrt(denom, out=scale), out=scale)
    return head, lift, center, scale


def _effects(lift, center, scale, z, d: DataSummary):
    return lift[..., None] * (d.group_means - center[..., None]) + scale[..., None] * z[..., 1:]


def eta_map(eta, j, z, d: DataSummary, h: Hyperparams):
    """Flat-prior mapping of the state eta = (eta_0, ..., eta_n): with
    B = J/(b + ss/2) ~ Gamma(a + n/2, rate b + ss/2), ss the effects' sum of
    squares, eta_0 ~ Normal(sqrt(n)*y_bar, (B + rU)/(rU*B)) and then
    eta_i ~ Normal(rU/(B + rU)*(group_mean_i - eta_0/sqrt(n)), 1/(B + rU))."""
    z = _normals(z, d.n)
    eta0, lift, center, scale = _step(eta_map, eta, j, z[..., 0], d, h)
    return np.concatenate([eta0[..., None], _effects(lift, center, scale, z, d)], axis=-1)


def shrink_location(beta_bar, noise0, d: DataSummary, h: Hyperparams, out=None):
    """Location update of the shrinkage mapping: a draw from
    Normal((nrU(y_bar - beta_bar) + z*w)/(nrU + z), 1/(nrU + z)) driven by
    the standard normal `noise0`, written into `out` when given."""
    sh = h.require_shrinkage()
    nrU = d.n * d.r * h.U
    mean = (nrU * (d.y_bar - beta_bar) + sh.z * sh.w) / (nrU + sh.z)
    return np.add(mean, np.divide(noise0, math.sqrt(nrU + sh.z), out=out), out=out)


def beta_map(beta, j, z, d: DataSummary, h: Hyperparams):
    """Shrinkage-prior mapping of the state beta = (beta_1, ..., beta_n): B
    as in `eta_map`, the location mu from `shrink_location`, then
    beta_i ~ Normal(rU/(B + rU)*(group_mean_i - mu), 1/(B + rU))."""
    z = _normals(z, d.n)
    _, lift, center, scale = _step(beta_map, beta, j, z[..., 0], d, h)
    return _effects(lift, center, scale, z, d)


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
# caller can see exactly when an (n, r) regime stops contracting.  On
# np.float64 inputs a product or quotient that reaches inf raises too.
# ---------------------------------------------------------------------------


def gamma_flat(n: int, r: int, d: DataSummary, h: Hyperparams) -> float:
    """Contraction rate of the flat-prior mapping.

    Only delta_prime is read from `d`; n and r are free so the rate can be
    scanned over regimes without materializing data of that size.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    a, b, U, dp = map(np.float64, (h.a, h.b, h.U, d.delta_prime))
    with named_overflow("the flat-prior rate", n=n, r=r, a=h.a, b=h.b, U=h.U):
        t1 = (dp / n) * n * (2 * a + n) * (2 * a + n + 2) / (
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
    a, b, U, dp, w, z = map(np.float64, (h.a, h.b, h.U, d.delta_prime, sh.w, sh.z))
    with named_overflow("the shrinkage-prior rate", n=n, r=r, a=h.a, b=h.b, U=h.U):
        r2U2 = (r * U) ** 2
        inner = (
            4.0 * dp / (b**3 * r2U2)
            + 32.0 / (b**2 * r2U2)
            + 16.0 * n * (w - d.y_bar) ** 2 / (b**3 * r2U2)
            + 2.0 / (b**3 * (r * U) ** 3)
        )
        # (2*n*r*U/z)**2 rather than 4 n^2 (rU)^2 / z^2: huge shrinkage
        # precisions would overflow in the squared denominator.
        return math.sqrt(
            (2 * a + n + 2) ** 2 / 4.0 * inner
            + (2.0 * n * r * U / z) ** 2
            + n / (2.0 * b * r * U)
        )


# ---------------------------------------------------------------------------
# Empirical coupling checks.
# ---------------------------------------------------------------------------

# Closed-form contraction rate of each mapping.
_RATES = {eta_map: gamma_flat, beta_map: gamma_shrink}


def _span(columns):
    """Orthonormal basis q (n, k) of the span of `columns` (n, m) and the
    columns' coordinates p (k, m) in it, so columns = q @ p up to rounding.
    k is the numerical rank: a column collinear with the others (the group
    means when they are all equal) adds no direction."""
    u, s, vt = np.linalg.svd(columns, full_matrices=False)
    k = int(np.count_nonzero(s > s[0] * max(columns.shape) * np.finfo(float).eps))
    return u[:, :k], s[:k, None] * vt[:k]


def _draw_stats(n: int, k: int, h: Hyperparams, size: int, rng: np.random.Generator, ws: Workspace):
    """`size` noise elements as the statistics the compressed distances read,
    drawn from their exact law into `ws` in this order: J ~ Gamma(a + n/2,
    rate 1), z_0, the coordinates w (size, k) of z_{1:n} in a k-dimensional
    orthonormal basis (iid standard normal), and the squared norm of the
    rest of z_{1:n}, chi-square with n - k degrees of freedom (0 when k = n:
    numpy's Gamma(0) is 0 and draws nothing)."""
    j = rng.standard_gamma(h.a + n / 2.0, out=ws.array("j", (size,)))
    z0 = rng.standard_normal(out=ws.array("z0", (size,)))
    w = rng.standard_normal(out=ws.array("w", (size, k)))
    rest = rng.standard_gamma((n - k) / 2.0, out=ws.array("rest", (size,)))
    return j, z0, w, np.multiply(rest, 2.0, out=rest)


def _basis_sq_norm(coefs, scale, p, w, rest, ws: Workspace):
    """||columns @ coefs + scale*z_{1:n}||^2 per noise element, in `ws`'s
    "sq": a sum of squares over the basis coordinates, since the expanded
    quadratic would cancel when the distance is small."""
    sq, inside, term = (ws.array(name, scale.shape) for name in ("sq", "t0", "t1"))
    sq.fill(0.0)
    for c in range(p.shape[0]):
        inside.fill(0.0)
        for coef, col in zip((*coefs, scale), (*p[c], w[:, c])):
            np.add(inside, np.multiply(coef, col, out=term), out=inside)
        np.add(sq, np.square(inside, out=inside), out=sq)
    return np.add(sq, np.multiply(np.square(scale, out=term), rest, out=term), out=sq)


def _pair_sq_dists(map_fn, x, y, stats, p, d: DataSummary, h: Hyperparams, workspace=None):
    """||f(x) - f(y)||^2 for each noise element of `stats` (`_draw_stats`
    order); p holds the coordinates of the columns (1, group_means)."""
    ws = workspace or Workspace()
    j, z0, w, rest = stats
    hx, lx, cx, sx = _step(map_fn, x, j, z0, d, h, ws, "x.")
    hy, ly, cy, sy = _step(map_fn, y, j, z0, d, h, ws, "y.")
    # The coefficients (ly*cy - lx*cx, lx - ly) and sx - sy, over x's scalars.
    np.subtract(np.multiply(ly, cy, out=cy), np.multiply(lx, cx, out=cx), out=cx)
    sq = _basis_sq_norm((cx, np.subtract(lx, ly, out=lx)), np.subtract(sx, sy, out=sx), p, w, rest, ws)
    if hx is not None:
        np.add(sq, np.square(np.subtract(hx, hy, out=hx), out=hx), out=sq)
    return sq


def _displacement_sq(map_fn, x, stats, p, d: DataSummary, h: Hyperparams, workspace=None):
    """||x - f(x)||^2 for each noise element of `stats`; p holds the
    coordinates of the columns (1, group_means, x's effects)."""
    ws = workspace or Workspace()
    j, z0, w, rest = stats
    head, lift, center, scale = _step(map_fn, x, j, z0, d, h, ws, "x.")
    # The coefficients (lift*center, -lift, 1) and -scale, over the scalars.
    coefs = (np.multiply(lift, center, out=center), np.negative(lift, out=lift), 1.0)
    sq = _basis_sq_norm(coefs, np.negative(scale, out=scale), p, w, rest, ws)
    if head is not None:
        np.add(sq, np.square(np.subtract(x[0], head, out=head), out=head), out=sq)
    return sq


def _mean_sd(values, ws: Workspace) -> tuple[float, float]:
    """Mean and sample standard deviation of `values` (0 for one value),
    np.mean and np.std(ddof=1) bit for bit, the deviations in `ws`."""
    m = float(np.mean(values))
    dev = np.subtract(values, m, out=ws.array("t0", values.shape))
    return m, math.sqrt(float(np.sum(np.square(dev, out=dev))) / max(values.size - 1, 1))


def _centered(d: DataSummary, h: Hyperparams):
    """`d` and `h` shifted to y_bar = 0 (group means and w less y_bar), for
    states taken relative to `start_state`: both mappings are equivariant
    under the shift, exact at y_bar = 0.  At a large y_bar the (1, group_means)
    basis would cancel and a state lose its unit scale next to sqrt(n)*y_bar."""
    sh = h.shrinkage
    h0 = h if sh is None else replace(h, shrinkage=replace(sh, w=sh.w - d.y_bar))
    return replace(d, y_bar=0.0, group_means=d.group_means - d.y_bar), h0


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
    workspace=None,
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
    report's note).  The check runs shifted to y_bar = 0 (`_centered`).

    The noise is drawn as its statistics (module docstring), with k the rank
    of span{1, group_means}.  Per pair, `rng` yields in this order: the pair
    sampler's draws, then J (reps_per_pair gammas), z_0 (reps_per_pair
    normals), the projection coordinates (reps_per_pair * k normals, row by
    row) and the chi-square remainders (reps_per_pair draws, none when
    k = n).  A skipped pair draws no noise.  The scratch arrays live in
    `workspace` (a fresh one when None), which a caller may pass every call.
    """
    if num_pairs < 1 or reps_per_pair < 1:
        raise ValueError("num_pairs and reps_per_pair must be >= 1")
    if d.n != n or d.r != r:
        raise ValueError(
            f"data summary is for (n={d.n}, r={d.r}), expected (n={n}, r={r})"
        )
    origin = start_state(map_fn, d)
    gamma = _RATES[map_fn](n, r, d, h)
    d, h = _centered(d, h)
    q, p = _span(np.column_stack([np.ones(n), d.group_means]))
    ws = workspace or Workspace()

    means = []
    violations = 0
    for _ in range(num_pairs):
        if pair_sampler is None:
            x, y = rng.standard_normal(origin.size), rng.standard_normal(origin.size)
        else:
            x, y = (_checked(state, origin.size) - origin for state in pair_sampler(rng))
        dist = float(np.linalg.norm(x - y))
        if dist == 0.0:
            continue
        stats = _draw_stats(n, q.shape[1], h, reps_per_pair, rng, ws)
        ratios = _pair_sq_dists(map_fn, x, y, stats, p, d, h, ws)
        np.divide(np.sqrt(ratios, out=ratios), dist, out=ratios)
        m, sd = _mean_sd(ratios, ws)
        means.append(m)
        if m > gamma + 3.0 * (sd / math.sqrt(reps_per_pair)):
            violations += 1

    tested = len(means)
    emp_mean, sd = _mean_sd(np.asarray(means), ws) if tested else (0.0, 0.0)
    return ContractionReport(
        gamma_formula=gamma,
        gamma_empirical_mean=emp_mean,
        gamma_empirical_ci_halfwidth=1.96 * sd / math.sqrt(max(tested, 1)),
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
    workspace=None,
) -> CxEstimate:
    """Monte Carlo estimate of c(x) = E||x - f(x)||, with standard error.

    The M noise elements are drawn as their statistics, with the order, the
    y_bar shift and the `workspace` of `contraction_check`, and k the rank
    of span{1, group_means, x's effects}.
    """
    if M < 2:
        raise ValueError(f"M must be >= 2, got {M}")
    origin = start_state(map_fn, d)
    x = _checked(x, origin.size) - origin
    if x.ndim != 1:
        raise ValueError("x must be a single state vector")
    d, h = _centered(d, h)
    ws = workspace or Workspace()
    effects = x[1:] if map_fn is eta_map else x
    q, p = _span(np.column_stack([np.ones(d.n), d.group_means, effects]))
    dists = _displacement_sq(map_fn, x, _draw_stats(d.n, q.shape[1], h, M, rng, ws), p, d, h, ws)
    mean, sd = _mean_sd(np.sqrt(dists, out=dists), ws)
    return CxEstimate(mean=mean, se=sd / math.sqrt(M))


def wasserstein_bound(c_x: float, gamma: float, m: int) -> float:
    """Geometric Wasserstein decay: c_x * gamma**m / (1 - gamma)."""
    if c_x < 0:
        raise ValueError(f"c_x must be >= 0, got {c_x}")
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"bound is vacuous unless 0 <= gamma < 1, got {gamma}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return c_x * gamma**m / (1.0 - gamma)
