"""Monte Carlo estimator of the eigenvalue power sum s_l of a trace-class
Markov operator, and the derived upper bound u_l = (s_l - 1)**(1/l) on its
second-largest eigenvalue.

The estimator averages N iid importance weights supplied by a chain object
(the `TraceChainSpec` contract below).  Weights can span hundreds of orders
of magnitude, so everything is accumulated in max-shifted log form; the
accumulators merge associatively, and parallel runs reduce them in a fixed
pairwise tree over replicate chunks so the result is bit-identical for any
worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Protocol, runtime_checkable

import numpy as np

from .distributions import normal_log_pdf

__all__ = [
    "Status",
    "GapEstimate",
    "TraceChainSpec",
    "estimate",
    "u_from_s",
    "ar1_oracle_exact",
    "ar1_matched_proposal_sd",
    "Ar1TraceChain",
]

# Replicates per accumulator chunk.  Fixed: the chunk boundaries (not the
# worker count) define the substream layout and the reduction tree.
CHUNK_SIZE = 16384

# A single weight carrying more than this share of the total sum marks the
# estimate as unreliable.
DOMINANCE_THRESHOLD = 0.5


class Status(str, Enum):
    """Verdict on one estimate, worst first: nonfinite_weights (s_hat is
    inf or NaN), infinite_se (finite s_hat, standard error overflowed),
    high_variance (one weight dominates the sum), s_not_above_one (no
    eigenvalue bound), ok."""

    OK = "ok"
    S_NOT_ABOVE_ONE = "s_not_above_one"
    HIGH_VARIANCE = "high_variance"
    INFINITE_SE = "infinite_se"
    NONFINITE_WEIGHTS = "nonfinite_weights"


@dataclass(frozen=True)
class GapEstimate:
    """Result of one eigenvalue-sum estimation run.

    u_hat/u_se are None unless s_hat is finite and > 1.  max_weight_share
    is the largest single weight's share of the weight sum, the volatility
    diagnostic behind the high_variance status.
    """

    l: int
    N: int
    s_hat: float
    s_se: float
    u_hat: float | None
    u_se: float | None
    status: Status
    max_weight_share: float


@runtime_checkable
class TraceChainSpec(Protocol):
    """What a chain must provide to be estimable: `size` iid log weights
    for step count l, drawn from `rng`.

    exp(log weight) must have finite mean equal to s_l and finite variance.
    Implementations must be pure given their random stream.
    """

    def draw_log_weights(self, l: int, size: int, rng: np.random.Generator) -> np.ndarray: ...


@dataclass(frozen=True)
class _WeightSummary:
    """Mergeable max-shifted accumulator over a batch of log weights.

    Tracks max log weight m, sum of exp(logw - m), and sum of
    exp(2*(logw - m)); enough for the mean, the sample variance, and the
    dominance diagnostic.
    """

    count: int
    max_log: float
    sum_shifted: float
    sum_shifted_sq: float

    @staticmethod
    def from_log_weights(logw: np.ndarray) -> "_WeightSummary":
        logw = np.asarray(logw, dtype=float)
        m = float(np.max(logw))
        shifted = np.exp(logw - m)
        return _WeightSummary(
            count=int(logw.size),
            max_log=m,
            sum_shifted=float(np.sum(shifted)),
            sum_shifted_sq=float(np.sum(shifted * shifted)),
        )

    def merge(self, other: "_WeightSummary") -> "_WeightSummary":
        m = max(self.max_log, other.max_log)
        a = math.exp(self.max_log - m)
        b = math.exp(other.max_log - m)
        return _WeightSummary(
            count=self.count + other.count,
            max_log=m,
            sum_shifted=self.sum_shifted * a + other.sum_shifted * b,
            sum_shifted_sq=self.sum_shifted_sq * a * a + other.sum_shifted_sq * b * b,
        )


def _tree_reduce(summaries: list[_WeightSummary]) -> _WeightSummary:
    """Pairwise reduction in a fixed order independent of worker count."""
    items = list(summaries)
    while len(items) > 1:
        merged = []
        for i in range(0, len(items) - 1, 2):
            merged.append(items[i].merge(items[i + 1]))
        if len(items) % 2 == 1:
            merged.append(items[-1])
        items = merged
    return items[0]


def _exp(x: float) -> float:
    """math.exp that saturates to inf instead of raising OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def estimate(
    spec: TraceChainSpec,
    l: int,
    N: int,
    rng: np.random.Generator,
    workers: int = 1,
) -> GapEstimate:
    """Estimate s_l from N iid weights and derive the eigenvalue bound.

    Replicates are processed in fixed chunks, each on its own substream
    spawned from `rng`; chunks may run on a thread pool but the substream
    assignment and the reduction order never depend on `workers`.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    sizes = [CHUNK_SIZE] * (N // CHUNK_SIZE)
    if N % CHUNK_SIZE:
        sizes.append(N % CHUNK_SIZE)
    streams = rng.spawn(len(sizes))

    def run_chunk(i: int) -> _WeightSummary:
        return _WeightSummary.from_log_weights(spec.draw_log_weights(l, sizes[i], streams[i]))

    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(run_chunk, range(len(sizes))))
    else:
        summaries = [run_chunk(i) for i in range(len(sizes))]
    total = _tree_reduce(summaries)

    log_mean = total.max_log + math.log(total.sum_shifted) - math.log(N)
    # Overflows to inf, and a NaN or infinite log weight turns the sums NaN;
    # either way the status below says so.
    s_hat = _exp(log_mean)
    # Sample variance of the weights via the shifted sums: both are bounded
    # by N, so q = N*s2 - s1^2 never overflows and is exactly zero for
    # constant weights (Cauchy-Schwarz equality).
    q = N * total.sum_shifted_sq - total.sum_shifted**2
    if q <= 0.0:
        var = 0.0
    else:
        log_var = (
            2.0 * total.max_log + math.log(q) - math.log(N) - math.log(N - 1)
        )
        # The un-shifted variance can overflow back in linear scale; an inf
        # here propagates to an inf standard error, flagged below.
        var = _exp(log_var)
    s_se = math.sqrt(var / N)
    max_weight_share = 1.0 / total.sum_shifted

    u_hat = u_se = None
    if 1.0 < s_hat < math.inf:
        u_hat, u_se = u_from_s(s_hat, s_se, l)
    if not math.isfinite(s_hat):
        status = Status.NONFINITE_WEIGHTS
    elif math.isinf(s_se):
        status = Status.INFINITE_SE
    elif max_weight_share > DOMINANCE_THRESHOLD:
        status = Status.HIGH_VARIANCE
    elif u_hat is None:
        status = Status.S_NOT_ABOVE_ONE
    else:
        status = Status.OK
    return GapEstimate(
        l=l,
        N=N,
        s_hat=s_hat,
        s_se=s_se,
        u_hat=u_hat,
        u_se=u_se,
        status=status,
        max_weight_share=max_weight_share,
    )


def u_from_s(s_hat: float, s_se: float, l: int) -> tuple[float, float]:
    """Map the power-sum estimate to the eigenvalue bound.

    u = (s-1)**(1/l); its standard error comes from first-order (delta
    method) propagation: u_se = u * s_se / (l * (s - 1)).
    """
    if not s_hat > 1.0:
        raise ValueError(
            f"eigenvalue bound undefined: s_hat must exceed 1, got {s_hat}"
        )
    u_hat = (s_hat - 1.0) ** (1.0 / l)
    u_se = u_hat * s_se / (l * (s_hat - 1.0))
    return u_hat, u_se


# ---------------------------------------------------------------------------
# Gaussian autoregression oracle.  The kernel x' = rho*x + noise has
# eigenvalues rho**i, so s_l = 1/(1 - rho**l) in closed form; it validates
# the whole estimation pipeline end to end.
# ---------------------------------------------------------------------------

def ar1_oracle_exact(rho: float, l: int) -> tuple[float, float]:
    """Closed-form (s_l, u_l) for the autoregression kernel."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    s_l = 1.0 / (1.0 - rho**l)
    u_l = rho / (1.0 - rho**l) ** (1.0 / l)
    return s_l, u_l


def ar1_matched_proposal_sd(rho: float, l: int, inflate: float = 1.5) -> float:
    """Proposal scale tuned to the diagonal kernel density.

    k^l(x|x) is an unnormalized Gaussian in x with standard deviation
    sqrt(1-rho**(2l))/(1-rho**l); matching it makes the weights constant,
    so the default overdisperses by `inflate` to keep a usable variance
    signal while staying square-integrable (any inflate > sqrt(1/2) works).
    """
    rl = rho**l
    return inflate * math.sqrt(1.0 - rho ** (2 * l)) / (1.0 - rl)


@dataclass(frozen=True)
class Ar1TraceChain:
    """Importance-sampling estimator of the autoregression's diagonal
    integral s_l = integral of k^l(x|x) dx.

    Draws x from a centered normal proposal and weights by
    k^l(x|x)/proposal(x), where the l-step kernel is
    Normal(rho**l * x, 1 - rho**(2l)).
    """

    rho: float
    proposal_sd: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if not self.proposal_sd > 0:
            raise ValueError(f"proposal_sd must be > 0, got {self.proposal_sd}")

    def draw_log_weights(self, l: int, size: int, rng: np.random.Generator) -> np.ndarray:
        x = rng.normal(0.0, self.proposal_sd, size)
        rl = self.rho**l
        return normal_log_pdf(x, rl * x, 1.0 - self.rho ** (2 * l)) - normal_log_pdf(
            x, 0.0, self.proposal_sd**2
        )
