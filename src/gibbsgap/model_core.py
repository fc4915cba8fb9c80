"""Model configuration and sufficient statistics of the random-effects
models, and the scratch `Workspace` the sampling kernels draw in.

Everything here is validated data; all randomness lives in the chain
modules, which also write out the conditional laws (`simple_gibbs` for the
simple model, the random mappings of `replicate_chains` for the replicated
ones).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Shrinkage",
    "Hyperparams",
    "DataSummary",
    "summarize",
    "Workspace",
]


@dataclass(frozen=True)
class Shrinkage:
    """Normal shrinkage prior on the location: mean w, precision z."""

    w: float
    z: float

    def __post_init__(self):
        if not self.z > 0:
            raise ValueError(f"shrinkage precision z must be > 0, got {self.z}")


@dataclass(frozen=True)
class Hyperparams:
    """Prior and model constants: variance prior (a, b), known error
    variance V, optional shrinkage pair (w, z)."""

    a: float
    b: float
    V: float
    shrinkage: Shrinkage | None = None

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and self.V > 0):
            raise ValueError(
                f"a, b, V must all be > 0, got a={self.a}, b={self.b}, V={self.V}"
            )

    @property
    def U(self) -> float:
        """Error precision, 1/V."""
        return 1.0 / self.V

    def require_shrinkage(self) -> Shrinkage:
        if self.shrinkage is None:
            raise ValueError("this operation needs the shrinkage prior (w, z)")
        return self.shrinkage


@dataclass(frozen=True, eq=False)
class DataSummary:
    """Sufficient statistics of a dataset.

    n groups, r replicates per group; grand mean y_bar; per-group means;
    delta = sum of squared deviations of the observations from y_bar
    (for r=1 this is the usual spread statistic of the simple model);
    delta_prime = sum of squared deviations of the group means from y_bar.
    """

    n: int
    r: int
    y_bar: float
    group_means: np.ndarray
    delta: float
    delta_prime: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 groups, got n={self.n}")
        if self.r < 1:
            raise ValueError(f"need at least 1 replicate, got r={self.r}")
        if len(self.group_means) != self.n:
            raise ValueError(
                f"group_means has length {len(self.group_means)}, expected n={self.n}"
            )
        if self.delta < 0 or self.delta_prime < 0:
            raise ValueError("delta and delta_prime must be nonnegative")


def summarize(y, r: int = 1) -> DataSummary:
    """Compute the sufficient statistics of a dataset.

    `y` is a length-n vector when r=1, or an n-by-r matrix when r>1.
    Two-pass summation (numpy's pairwise reduction on centered values), so
    delta stays accurate at n = 1e7 where one-pass formulas cancel badly.
    NaN and inf are rejected; the error names the first bad row (1-based).
    Finite data whose mean or spread overflows a double is rejected too.

    The summary's `group_means` is read-only.  For r=1 it is a copy of a
    writeable `y`, and `y` itself when `y` is a read-only float array: the
    library passes its own arrays that way, so no copy of them is made.
    """
    try:
        arr = np.asarray(y, dtype=float)
    except ValueError as exc:
        raise ValueError(f"ragged or non-numeric input: {exc}") from exc
    if arr.size == 0:
        raise ValueError("empty input")
    if r == 1:
        if arr.flags.writeable and (arr is y or arr.base is not None):
            arr = arr.copy()  # the caller's array may change after the call
        arr = arr.reshape(-1)
    elif arr.ndim != 2 or arr.shape[1] != r:
        raise ValueError(
            f"replicated input must be an n-by-{r} matrix, got shape {arr.shape}"
        )
    n = arr.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 groups, got {n}")
    # Finite values near the largest double can still overflow the mean or
    # the squared deviations; that is reported below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        # min and max propagate NaN and inf, so they check finiteness too.
        lo, hi = float(arr.min()), float(arr.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            row = int(np.flatnonzero(~np.isfinite(arr))[0]) // r
            raise ValueError(f"non-finite value in row {row + 1}: {arr[row].tolist()}")
        # Constant data must yield exactly zero spread; the pairwise mean of
        # n equal values can otherwise pick up one ulp of round-off.
        y_bar = lo if lo == hi else float(arr.mean())
        delta = _sq_dev_sum(arr.ravel(order="K"), y_bar)
        group_means = arr if r == 1 else arr.mean(axis=1)
        delta_prime = delta if r == 1 else _sq_dev_sum(group_means, y_bar)
    group_means.flags.writeable = False
    if not (math.isfinite(y_bar) and math.isfinite(delta) and math.isfinite(delta_prime)):
        raise ValueError(
            f"the data's summary overflows a double (y_bar={y_bar}, delta={delta}, "
            f"delta_prime={delta_prime}); rescale the data"
        )
    return DataSummary(
        n=n, r=r, y_bar=y_bar, group_means=group_means,
        delta=delta, delta_prime=delta_prime,
    )


def _sq_dev_sum(x: np.ndarray, c: float) -> float:
    """`np.sum((x - c) ** 2)` of a flat array, bit for bit, without its
    full-size temporary: blocks of at most 2**16 values are squared and
    summed one at a time, split where numpy's pairwise sum splits."""
    if len(x) <= 1 << 16:
        return float(np.sum((x - c) ** 2))
    half = len(x) // 2
    half -= half % 8
    return _sq_dev_sum(x[:half], c) + _sq_dev_sum(x[half:], c)


class Workspace:
    """Named scratch arrays that one thread reuses from call to call.

    `array(name, shape)` returns a C-contiguous array of that shape on the
    front of the buffer kept under `name`, growing the buffer when it is too
    small; its contents are whatever the last user left there.  Reuse keeps
    a kernel's reps-length arrays from being allocated and freed on every
    call, which makes glibc trim the heap and fault the pages back in.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape) -> np.ndarray:
        count = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < count:
            buf = self._buffers[name] = np.empty(count)
        return buf[:count].reshape(shape)
