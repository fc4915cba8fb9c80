"""Monte Carlo estimator of the eigenvalue power sum s_l of a trace-class
Markov operator, and the derived upper bound u_l = (s_l - 1)**(1/l) on its
second-largest eigenvalue.

The estimator averages N iid importance weights supplied by a chain object
(the `TraceChainSpec` contract below); one run of N trajectories of length
L yields the weights of every step count l <= L.  Weights can span hundreds
of orders of magnitude, so everything is accumulated in max-shifted log
form: each replicate chunk yields its per-row max and shifted sums, and the
chunks are reduced in chunk order onto a common max, so the result is
bit-identical for any worker count.  Each worker thread draws its chunks in
one `Workspace` for the whole run, so a chunk allocates almost nothing.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

import numpy as np

from .distributions import normal_log_pdf

__all__ = [
    "Status",
    "GapEstimate",
    "TraceChainSpec",
    "Workspace",
    "estimate",
    "estimate_scan",
    "chunk_layout",
    "u_from_s",
    "ar1_oracle_exact",
    "ar1_matched_proposal_sd",
    "Ar1TraceChain",
]

# Replicates per accumulator chunk.  Fixed: the chunk boundaries (not the
# worker count) define the substream layout and the reduction order.
CHUNK_SIZE = 16384

# A single weight carrying more than this share of the total sum marks the
# estimate as unreliable.
DOMINANCE_THRESHOLD = 0.5

# `ar1_matched_proposal_sd`'s overdispersion; any factor > sqrt(1/2) works.
PROPOSAL_INFLATION = 1.5


class Status(str, Enum):
    """Verdict on one estimate, worst first: nonfinite_weights (s_hat is
    inf or NaN), s_underflow (the mean weight underflowed to 0, though
    s_l >= 1), infinite_se (finite s_hat, standard error overflowed),
    high_variance (one weight dominates the sum), s_not_above_one (no
    eigenvalue bound), ok."""

    OK = "ok"
    S_NOT_ABOVE_ONE = "s_not_above_one"
    HIGH_VARIANCE = "high_variance"
    INFINITE_SE = "infinite_se"
    S_UNDERFLOW = "s_underflow"
    NONFINITE_WEIGHTS = "nonfinite_weights"


@dataclass(frozen=True)
class GapEstimate:
    """Result of one eigenvalue-sum estimation run.

    u_hat/u_se are None unless s_hat is finite and > 1.  max_weight_share
    is the largest single weight's share of the weight sum, the volatility
    diagnostic behind the high_variance status.  ess is Kong's (1992)
    effective sample size (sum w)^2 / sum w^2: N for constant weights, near
    1 when one weight dominates.
    """

    l: int
    N: int
    s_hat: float
    s_se: float
    u_hat: float | None
    u_se: float | None
    status: Status
    max_weight_share: float
    ess: float


class Workspace:
    """Named scratch arrays that one thread reuses from chunk to chunk.

    `array(name, shape)` returns a C-contiguous array of that shape on the
    front of the buffer kept under `name`, growing the buffer when it is too
    small; its contents are whatever the last user left there.  Reuse keeps
    a chunk's ~128 KiB arrays from being allocated and freed on every step,
    which makes glibc trim the heap and fault the pages back in.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape) -> np.ndarray:
        count = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < count:
            buf = self._buffers[name] = np.empty(count)
        return buf[:count].reshape(shape)


class TraceChainSpec(Protocol):
    """What a chain must provide to be estimable: an (L, size) array of log
    weights drawn from `rng`, whose row l-1 holds `size` iid log weights for
    step count l.  The rows may share their draws (one trajectory of length
    L serves every l <= L).

    The chain keeps its scratch arrays, and may return the block itself, in
    `workspace` (a fresh one when None); the caller owns the block only
    until it passes the same workspace again.

    In each row, exp(log weight) must have finite mean equal to s_l and
    finite variance.  Implementations must be pure given their random
    stream: the workspace's old contents never reach the result.
    """

    def draw_log_weights(
        self, L: int, size: int, rng: np.random.Generator, *, workspace: Workspace | None = None
    ) -> np.ndarray: ...


def _rows(block: np.ndarray, rows: list[int]) -> np.ndarray:
    """block[rows]: a view when the rows are consecutive and ascending (every
    l-scan), a copy otherwise."""
    lo = rows[0]
    if rows == list(range(lo, lo + len(rows))):
        return block[lo:lo + len(rows)]
    return block[rows]


def _chunk_sums(logw: np.ndarray) -> np.ndarray:
    """Max-shifted sums of a (rows, size) block of log weights, as a
    (3, rows) array: per row the max log weight m, sum exp(logw - m) and
    sum exp(2*(logw - m)); enough for the mean, the sample variance and the
    dominance diagnostic.  Reduces in place: `logw` is overwritten."""
    m = np.max(logw, axis=1)
    shifted = np.exp(np.subtract(logw, m[:, None], out=logw), out=logw)
    s1 = np.sum(shifted, axis=1)
    return np.stack([m, s1, np.sum(np.square(shifted, out=shifted), axis=1)])


def _merge(chunks) -> np.ndarray:
    """Reduce per-chunk `_chunk_sums` arrays, in the order given, onto each
    row's common max.  The chunk axis is the contiguous one, so every row is
    summed in the same order whatever the number of rows."""
    parts = np.stack(chunks, axis=-1)
    top = np.max(parts[0], axis=1)
    scale = np.exp(parts[0] - top[:, None])
    return np.stack([
        top,
        np.sum(parts[1] * scale, axis=1),
        np.sum(parts[2] * scale * scale, axis=1),
    ])


def chunk_layout(N: int, workers: int = 1) -> tuple[list[int], int]:
    """The replicates in each chunk of an N-replicate run (full CHUNK_SIZE
    chunks, then the remainder) and how many threads draw them:
    min(workers, chunks), at least 1."""
    sizes = [CHUNK_SIZE] * (N // CHUNK_SIZE) + ([N % CHUNK_SIZE] if N % CHUNK_SIZE else [])
    return sizes, max(1, min(workers, len(sizes)))


def _exp(x: float) -> float:
    """math.exp that saturates to inf instead of raising OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def estimate_scan(
    spec: TraceChainSpec,
    ls,
    N: int,
    rng: np.random.Generator,
    workers: int = 1,
) -> tuple[GapEstimate, ...]:
    """Estimate s_l for every step count in `ls` from one set of N
    trajectories of length max(ls), in the order given.

    Replicates are processed in fixed chunks, each on its own substream
    spawned from `rng`; chunks may run on a thread pool but the substream
    assignment and the reduction order never depend on `workers`.  Each
    thread draws its chunks in its own `Workspace`, made once per call.  The
    estimates share their trajectories, so they are positively correlated
    across l; each one's standard error is still valid on its own.
    """
    ls = tuple(int(l) for l in ls)
    if min(ls, default=0) < 1:
        raise ValueError(f"need one or more l, each >= 1, got {list(ls)}")
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    L = max(ls)
    rows = [l - 1 for l in ls]
    sizes, threads = chunk_layout(N, workers)
    streams = rng.spawn(len(sizes))
    local = threading.local()

    def run_chunk(i: int) -> np.ndarray:
        if not hasattr(local, "workspace"):
            local.workspace = Workspace()
        block = spec.draw_log_weights(L, sizes[i], streams[i], workspace=local.workspace)
        return _chunk_sums(_rows(block, rows))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(run_chunk, range(len(sizes))))
    else:
        chunks = [run_chunk(i) for i in range(len(sizes))]
    return tuple(_finish(*sums, l, N) for sums, l in zip(_merge(chunks).T.tolist(), ls))


def estimate(
    spec: TraceChainSpec,
    l: int,
    N: int,
    rng: np.random.Generator,
    workers: int = 1,
) -> GapEstimate:
    """Estimate s_l from N iid weights and derive the eigenvalue bound: the
    one-l case of `estimate_scan`."""
    return estimate_scan(spec, (l,), N, rng, workers=workers)[0]


def _finish(
    max_log: float, sum_shifted: float, sum_shifted_sq: float, l: int, N: int
) -> GapEstimate:
    """Turn the reduced max-shifted sums of N weights into the estimate."""
    log_mean = max_log + math.log(sum_shifted) - math.log(N)
    # Overflows to inf or underflows to 0, and a NaN or infinite log weight
    # turns the sums NaN; each way the status below says so.
    s_hat = _exp(log_mean)
    # Sample variance of the weights via the shifted sums: both are bounded
    # by N, so q = N*s2 - s1^2 never overflows and is exactly zero for
    # constant weights (Cauchy-Schwarz equality).
    q = N * sum_shifted_sq - sum_shifted**2
    if q <= 0.0:
        var = 0.0
    else:
        log_var = (
            2.0 * max_log + math.log(q) - math.log(N) - math.log(N - 1)
        )
        # The un-shifted variance can overflow back in linear scale; an inf
        # here propagates to an inf standard error, flagged below.
        var = _exp(log_var)
    s_se = math.sqrt(var / N)
    max_weight_share = 1.0 / sum_shifted
    ess = sum_shifted**2 / sum_shifted_sq

    u_hat = u_se = None
    if 1.0 < s_hat < math.inf:
        u_hat, u_se = u_from_s(s_hat, s_se, l)
    if not math.isfinite(s_hat):
        status = Status.NONFINITE_WEIGHTS
    elif s_hat == 0.0:
        status = Status.S_UNDERFLOW
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
        ess=ess,
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


def ar1_matched_proposal_sd(rho: float, l: int) -> float:
    """Proposal scale tuned to the diagonal kernel density.

    k^l(x|x) is an unnormalized Gaussian in x with standard deviation
    sqrt(1-rho**(2l))/(1-rho**l); matching it makes the weights constant,
    so it is overdispersed by `PROPOSAL_INFLATION` to keep a usable variance
    signal while staying square-integrable.
    """
    rl = rho**l
    return PROPOSAL_INFLATION * math.sqrt(1.0 - rho ** (2 * l)) / (1.0 - rl)


@dataclass(frozen=True)
class Ar1TraceChain:
    """Importance-sampling estimator of the autoregression's diagonal
    integral s_l = integral of k^l(x|x) dx.

    Draws x from a centered normal proposal and weights by
    k^l(x|x)/proposal(x), where the l-step kernel is
    Normal(rho**l * x, 1 - rho**(2l)); one x serves every l <= L.
    """

    rho: float
    proposal_sd: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if not self.proposal_sd > 0:
            raise ValueError(f"proposal_sd must be > 0, got {self.proposal_sd}")

    def draw_log_weights(
        self, L: int, size: int, rng: np.random.Generator, *, workspace: Workspace | None = None
    ) -> np.ndarray:
        ws = workspace or Workspace()
        x = rng.normal(0.0, self.proposal_sd, size)
        den = normal_log_pdf(x, 0.0, self.proposal_sd**2)
        out = ws.array("logw", (L, size))
        for l in range(1, L + 1):
            row = np.multiply(self.rho**l, x, out=out[l - 1])
            normal_log_pdf(x, row, 1.0 - self.rho ** (2 * l), out=row)
            np.subtract(row, den, out=row)
        return out
