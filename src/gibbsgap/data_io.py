"""Data simulation, the dataset file format, and result persistence.

Files are UTF-8 with LF newlines.  Numbers are serialized in shortest
round-trip decimal form so reruns with the same seed produce byte-identical
output.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import json
import math
import os
import platform
import signal
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .model_core import DataSummary, summarize

__all__ = [
    "SimConfig",
    "simulate",
    "synthetic_summary",
    "write_dataset",
    "read_dataset",
    "json_text",
    "write_json",
    "ResultRecord",
    "write_results",
    "write_csv",
    "csv_text",
    "result_rows",
    "CSV_FIELDS",
    "versions",
]


_BLOCK_ROWS = 1 << 16  # rows per block of `simulate`'s noise and `write_dataset`'s formatting


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
    `return_raw` is set; the raw array is read-only, and for r=1 it is the
    summary's `group_means`.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    theta = rng.normal(0.0, math.sqrt(cfg.A_true), cfg.n)
    # The noise is drawn and added one block of rows at a time, into
    # theta's own buffer when r=1: the same stream and sums as one
    # full-size draw, without its full-size array.
    y = theta[:, None] if cfg.r == 1 else np.empty((cfg.n, cfg.r))
    for i in range(0, cfg.n, _BLOCK_ROWS):
        rows = theta[i:i + _BLOCK_ROWS, None]
        np.add(rows, rng.normal(0.0, math.sqrt(cfg.V_true), (len(rows), cfg.r)),
               out=y[i:i + len(rows)])
    y = theta if cfg.r == 1 else y
    del theta, rows  # for r > 1, not held while the summary is taken
    y.flags.writeable = False  # summarized without a copy
    summary = summarize(y)
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
    if not (math.isfinite(y_bar) and math.isfinite(delta_prime)):
        raise ValueError(f"y_bar and delta_prime must be finite, got y_bar={y_bar}, delta_prime={delta_prime}")
    if delta_prime < 0:
        raise ValueError(f"delta_prime must be >= 0, got {delta_prime}")
    e = np.ones(n)
    e[1::2] = -1.0
    e -= e.mean()
    gm = y_bar + math.sqrt(delta_prime / float(np.sum(e * e))) * e
    return DataSummary(r=r, y_bar=float(y_bar), group_means=gm,
                       delta=float(delta_prime), delta_prime=float(delta_prime))


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _block_bytes(block) -> bytes:
    """The dataset lines of a block of rows.  A one-column block is one
    newline join of its reprs, a third faster than a format call per value
    and the same bytes."""
    if block.ndim == 1:
        return ("\n".join(map(repr, block.tolist())) + "\n").encode()
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist()).encode()


def _end_with(parent: int) -> None:
    """Pool worker initializer: on Linux (prctl's PR_SET_PDEATHSIG = 1) the
    worker is killed when `parent` dies, so a writer ended by a signal
    leaves no worker blocked on the pool's pipes."""
    import ctypes

    if hasattr(libc := ctypes.CDLL(None), "prctl"):
        libc.prctl(1, ctypes.c_ulong(signal.SIGKILL))
        if os.getppid() != parent:  # it died before the prctl call
            os.kill(os.getpid(), signal.SIGKILL)


def write_dataset(path, y) -> int:
    """Write the dataset file `read_dataset` reads: one line per group, the
    repr of each of its values comma-joined.  A pool of forked processes,
    at most one per usable CPU, formats blocks of 65 536 rows, written in
    block order, so the bytes are the same for any CPU count.  Blocks done
    ahead of the next one written wait in memory: while the writes keep up,
    the traced peak at a million rows is ~6 MB, where the file as one
    string would take ~108 MB.  Returns the number of processes that
    formatted the file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blocks = np.split(y, range(_BLOCK_ROWS, len(y), _BLOCK_ROWS))
    k = min(_usable_cpus(), len(blocks)) if hasattr(os, "fork") else 1
    with path.open("wb") as fh:
        if k == 1:
            fh.writelines(map(_block_bytes, blocks))
        else:
            # Imported here, not at module top: the pool's modules cost
            # ~11 ms of every command's start-up, and only a file of more
            # than one block uses them.  The start method is named, not left
            # to the platform's default, so no worker imports the package.
            import multiprocessing

            with concurrent.futures.ProcessPoolExecutor(k, mp_context=multiprocessing.get_context("fork"),
                                                        initializer=_end_with, initargs=(os.getpid(),)) as pool:
                fh.writelines(pool.map(_block_bytes, blocks))
    return k


def _read_lines(path) -> np.ndarray:
    """The dataset's values, read one line at a time."""
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
            return np.loadtxt(itertools.chain([first], rows), delimiter=",", quotechar='"',
                              comments=None, ndmin=2)
        except ValueError as exc:
            reason = str(exc).partition(" at row ")[0]
            raise ValueError(f"{path}: line {lineno}: {reason}") from exc


def read_dataset(path) -> DataSummary:
    """Read a dataset file and summarize it.

    One value per line (or a single CSV column) is the unreplicated layout;
    an n-by-r CSV matrix is the replicated layout.  Blank and
    whitespace-only lines are skipped.  Parse errors name the offending
    1-based file line.

    numpy's C reader parses the whole file in one call; a file it rejects
    (whitespace-only lines, a parse error, no data) is read again line by
    line, which accepts the same files and names the failing line.
    """
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt's "no data"
            arr = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
    except ValueError:
        arr = np.empty((0, 1))
    if not arr.size:
        arr = _read_lines(path)
    arr.flags.writeable = False  # summarized without a copy
    return summarize(arr)


# ---------------------------------------------------------------------------
# Result records.
# ---------------------------------------------------------------------------

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


CSV_FIELDS = [f.name for f in fields(ResultRecord)]


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


def versions() -> dict:
    """The Python, numpy and gibbsgap versions.  numpy's generators define
    the random streams, so a rerun from a sidecar needs the same numpy."""
    return {"python": platform.python_version(), "numpy": np.__version__, "gibbsgap": __version__}


def write_results(records, path, config=None, timing_seconds=None, diagnostics=None) -> None:
    """Write records as CSV plus a JSON sidecar.

    The sidecar mirrors every field and adds wall-clock timing, the
    configuration echo, the `versions()` and any extra diagnostics; the CSV
    alone is the byte-stable artifact.
    """
    path = Path(path)
    write_csv(path, result_rows(records))
    sidecar = {
        "records": [asdict(rec) for rec in records],
        "timing_seconds": timing_seconds,
        "config": config,
        "versions": versions(),
    }
    if diagnostics is not None:
        sidecar["diagnostics"] = diagnostics
    write_json(path.with_suffix(".json"), sidecar)


def _finite(obj):
    """`obj` with every non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def json_text(obj) -> str:
    """`obj` as indented strict JSON text.  A non-finite float (an
    overflowed SE, say) becomes null; the row's status says why."""
    return json.dumps(_finite(obj), indent=2, allow_nan=False)


def write_json(path, obj) -> None:
    """Write `json_text(obj)` with a final newline."""
    Path(path).write_text(json_text(obj) + "\n", encoding="utf-8", newline="\n")
