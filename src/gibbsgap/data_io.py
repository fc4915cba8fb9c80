"""Data simulation, the dataset file format, and result persistence.

Files are UTF-8 with LF newlines.  Numbers are serialized in shortest
round-trip decimal form so reruns with the same seed produce byte-identical
output.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .model_core import DataSummary, summarize

__all__ = [
    "SimConfig",
    "simulate",
    "synthetic_summary",
    "write_dataset",
    "read_dataset",
    "write_json",
    "ResultRecord",
    "write_results",
    "write_csv",
    "csv_text",
    "result_rows",
    "CSV_FIELDS",
]


@dataclass(frozen=True)
class SimConfig:
    """Simulation protocol: n groups, r replicates, effects drawn with
    variance A_true around zero, observations with error variance V_true."""

    n: int
    r: int
    A_true: float
    V_true: float
    seed: int

    def __post_init__(self):
        if self.n < 2 or self.r < 1:
            raise ValueError(f"need n >= 2 and r >= 1, got n={self.n}, r={self.r}")
        if not (self.A_true > 0 and self.V_true > 0):
            raise ValueError(
                f"variances must be > 0, got A={self.A_true}, V={self.V_true}"
            )


def simulate(cfg: SimConfig, return_raw: bool = False):
    """Simulate a dataset and summarize it.

    Effects theta_i are iid Normal(0, A_true); observations are
    theta_i + Normal(0, V_true) noise.  Pure function of `cfg`.
    Returns the DataSummary, or (DataSummary, raw array) when
    `return_raw` is set.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    theta = rng.normal(0.0, math.sqrt(cfg.A_true), cfg.n)
    if cfg.r == 1:
        y = theta + rng.normal(0.0, math.sqrt(cfg.V_true), cfg.n)
    else:
        y = theta[:, None] + rng.normal(0.0, math.sqrt(cfg.V_true), (cfg.n, cfg.r))
    summary = summarize(y, cfg.r)
    if return_raw:
        return summary, y
    return summary


def synthetic_summary(
    n: int, r: int, delta_prime: float = 0.0, y_bar: float = 0.0
) -> DataSummary:
    """Deterministic summary with a prescribed group-mean spread.

    Group means sit at y_bar plus a mean-zero alternating pattern scaled so
    the spread statistic equals `delta_prime` exactly.  Used to evaluate
    contraction rates and run coupling checks on regime grids without
    materializing n*r observations.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if delta_prime < 0:
        raise ValueError(f"delta_prime must be >= 0, got {delta_prime}")
    if delta_prime == 0.0:
        gm = np.full(n, float(y_bar))
    else:
        e = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
        e -= e.mean()
        gm = y_bar + math.sqrt(delta_prime / float(np.sum(e * e))) * e
    return DataSummary(
        n=n, r=r, y_bar=float(y_bar), group_means=gm,
        delta=float(delta_prime), delta_prime=float(delta_prime),
    )


def write_dataset(path, y) -> None:
    """Write the dataset file `read_dataset` reads: one line per group, the
    repr of each of its values comma-joined.  Lines are joined in blocks of
    65 536 rows: at a million rows that is ~140 MB smaller at peak than one
    string, and half the time of `write_csv`'s per-cell rule."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = "{!r}\n".format if y.ndim == 1 else (lambda row: ",".join(map(repr, row)) + "\n")
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for block in np.split(y, range(1 << 16, len(y), 1 << 16)):
            fh.write("".join(map(line, block.tolist())))


def read_dataset(path) -> DataSummary:
    """Read a dataset file and summarize it.

    One value per line (or a single CSV column) is the unreplicated layout;
    an n-by-r CSV matrix is the replicated layout.  Blank and
    whitespace-only lines are skipped.  Parse errors name the offending
    1-based file line.
    """
    lineno = 0

    def lines(fh):
        # loadtxt pulls one line at a time, so when it raises, `lineno` is
        # the line it failed on; its own row counts skip blank lines.
        nonlocal lineno
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield line

    with open(path, encoding="utf-8") as fh:
        rows = lines(fh)
        first = next(rows, None)
        if first is None:
            raise ValueError(f"{path}: empty dataset")
        try:
            arr = np.loadtxt(itertools.chain([first], rows), delimiter=",", quotechar='"',
                             comments=None, ndmin=2)
        except ValueError as exc:
            reason = str(exc).partition(" at row ")[0]
            raise ValueError(f"{path}: line {lineno}: {reason}") from exc
    return summarize(arr, arr.shape[1])


# ---------------------------------------------------------------------------
# Result records.
# ---------------------------------------------------------------------------

CSV_FIELDS = [
    "run_id", "model", "n", "r", "a", "b", "V", "w", "z", "l", "N", "seed",
    "s_hat", "s_se", "u_hat", "u_se", "gamma_formula", "gamma_empirical",
    "status",
]


@dataclass(frozen=True)
class ResultRecord:
    """One output row; unset fields serialize as empty cells."""

    run_id: str
    model: str
    n: int | None = None
    r: int | None = None
    a: float | None = None
    b: float | None = None
    V: float | None = None
    w: float | None = None
    z: float | None = None
    l: int | None = None
    N: int | None = None
    seed: int | None = None
    s_hat: float | None = None
    s_se: float | None = None
    u_hat: float | None = None
    u_se: float | None = None
    gamma_formula: float | None = None
    gamma_empirical: float | None = None
    status: str | None = None


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def csv_text(rows) -> str:
    """CSV text of `rows`, one LF-terminated line each: None is an empty
    cell, a float its shortest round-trip repr, anything else its str.
    Cells are not quoted; none of this package's cells needs it."""
    return "".join(",".join(map(_cell, row)) + "\n" for row in rows)


def write_csv(path, rows) -> None:
    """Write `csv_text(rows)` to `path`, creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(csv_text(rows), encoding="utf-8", newline="\n")


def result_rows(records) -> list[list]:
    """The header plus one row of `CSV_FIELDS` values per record."""
    return [CSV_FIELDS] + [[getattr(rec, name) for name in CSV_FIELDS] for rec in records]


def write_results(records, path, config=None, timing_seconds=None, diagnostics=None) -> None:
    """Write records as CSV plus a JSON sidecar.

    The sidecar mirrors every field and adds wall-clock timing, the
    configuration echo, and any extra diagnostics; the CSV alone is the
    byte-stable artifact.
    """
    path = Path(path)
    write_csv(path, result_rows(records))
    sidecar = {
        "records": [asdict(rec) for rec in records],
        "timing_seconds": timing_seconds,
        "config": config,
    }
    if diagnostics is not None:
        sidecar["diagnostics"] = diagnostics
    write_json(path.with_suffix(".json"), sidecar)


def write_json(path, obj) -> None:
    """Write `obj` as indented JSON with a final newline."""
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8", newline="\n")
