"""Command-line front end: simulation, gap-estimation sweeps, the
autoregression validation grid, and contraction-rate experiments.

Subcommands: simulate | estimate-gap | oracle | contraction.
Exit codes: 0 ok, 1 usage, 2 precondition violation, 3 validation failure.

Outputs are CSV plus a JSON sidecar carrying the resolved configuration, so
any run can be reproduced from its sidecar alone.  The worker count changes
wall-clock time only, never any number.  Plot-ready columns are emitted for
external tools; nothing is rendered in-process.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .data_io import ResultRecord, SimConfig, csv_text, json_text, read_dataset, result_rows, simulate, synthetic_summary, versions, write_csv, write_dataset, write_json, write_results
from .model_core import Hyperparams, Shrinkage, Workspace, summarize
from .replicate_chains import beta_map, contraction_check, estimate_cx, eta_map, gamma_flat, gamma_shrink, start_state, wasserstein_bound
from .simple_gibbs import SimpleModelTraceChain
from .spectral_estimator import CHUNK_SIZE, Ar1TraceChain, ar1_matched_proposal_sd, ar1_oracle_exact, chunk_layout, estimate, estimate_scan

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_VALIDATION = 3

# Simulation presets: effect/error variance pairs spanning the equal,
# effect-dominant, and noise-dominant regimes, with priors chosen so
# b/(a-1) equals the simulating A.
PRESETS = {
    "A1V1": {"A": 1.0, "V": 1.0, "a": 2.0, "b": 1.0},
    "A10V10": {"A": 10.0, "V": 10.0, "a": 2.0, "b": 10.0},
    "A100V100": {"A": 100.0, "V": 100.0, "a": 2.0, "b": 100.0},
    "A10V1": {"A": 10.0, "V": 1.0, "a": 2.0, "b": 10.0},
    "A100V10": {"A": 100.0, "V": 10.0, "a": 2.0, "b": 100.0},
    "A1V10": {"A": 1.0, "V": 10.0, "a": 2.0, "b": 1.0},
    "A10V100": {"A": 10.0, "V": 100.0, "a": 2.0, "b": 10.0},
}

# Seed-stream namespaces: every generator is derived from the user seed and
# a fixed key path, so no command shares a stream between stages.
_KEY_GAP = 1
_KEY_ORACLE = 2
_KEY_PAIRS = 3
_KEY_CX = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1 (argparse's default would be 2).
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(f"{self.prog}: error: {message}", EXIT_USAGE)


def _at_least(low: int, or_zero: bool = False):
    """An argparse type: an integer no smaller than `low`, or 0 when
    `or_zero` is set."""
    def count(text: str) -> int:
        value = int(text)
        if value < low and not (or_zero and value == 0):
            raise argparse.ArgumentTypeError(f"must be {'0 or ' if or_zero else ''}>= {low}, got {value}")
        return value
    return count


def _list_of(cast, span: bool = False, name: str | None = None):
    """An argparse type: a non-empty comma list, each item `cast`; with
    `span`, also "lo..hi" (inclusive).  Messages name it after `name`, or
    after `cast` when `name` is None."""
    def items(text: str) -> list:
        if span and ".." in text:
            lo, hi = (cast(end) for end in text.split("..", 1))
            values = list(range(lo, hi + 1))
        else:
            values = [cast(tok) for tok in text.split(",") if tok.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"no value in {text!r}")
        return values
    items.__name__ = f"{name or cast.__name__} {'span' if span else 'list'}"  # argparse's "invalid <name> value"
    return items


def _finite(text: str, cast=float):
    """`text` as a finite number of type `cast`, or None."""
    try:
        value = cast(text)
        return value if math.isfinite(value) else None
    except (ValueError, OverflowError):
        return None


def _real(positive: bool = False):
    """An argparse type: a finite float, and > 0 when `positive` is set."""
    def real(text: str) -> float:
        if (value := _finite(text)) is None or (positive and not value > 0):
            raise ValueError(text)
        return value
    real.__name__ = f"{'positive ' if positive else ''}finite float"  # argparse's "invalid <name> value"
    return real


# The rule options' types: given the text alone, each checks and returns it
# (the sidecar records the text); given a cell's n (and r), its value there.


def _r_rule(text: str, n: int | None = None):
    """'fixed:K' (an integer K) or 'pow:P' (r = n**P rounded, at least 1)."""
    kind, _, arg = text.partition(":")
    value = _finite(arg, int if kind == "fixed" else float) if kind in ("fixed", "pow") else None
    if value is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not fixed:K (K an integer) or pow:P (P a finite number)")
    return text if n is None else value if kind == "fixed" else max(1, round(n**value))


def _z_rule(text: str, n: int | None = None, r: int | None = None):
    """'nr2' (z = (n*r)**2) or 'fixed:Z'."""
    kind, _, arg = text.partition(":")
    value = _finite(arg) if kind == "fixed" else None
    if value is None and text != "nr2":
        raise argparse.ArgumentTypeError(f"{text!r} is not nr2 or fixed:Z (Z a finite number)")
    return text if n is None else float(n * r) ** 2 if value is None else value


def _dprime(text: str, n: int | None = None):
    """'n' (a group-mean spread of n) or a finite number."""
    if text != "n" and _finite(text) is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not n or a finite number")
    return text if n is None else float(n if text == "n" else text)


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _options(ns: argparse.Namespace) -> dict:
    """The resolved options of a run, `command` included."""
    return {k: v for k, v in vars(ns).items() if k not in ("func", "config")}


def _flag_text(key: str, value) -> str:
    """A config value as the text of its flag; a list is a comma list."""
    items = value if isinstance(value, list) else [value]
    if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in items):
        raise CliError(
            f"config key {key!r} must be a string, a number, null or a list of strings and numbers",
            EXIT_USAGE,
        )
    return ",".join(map(str, items))


def _config_args(path: str, command: str, options: dict) -> list[str]:
    """A JSON config file's values as flags, `--<key>=<text>` with each `_`
    of the key turned into `-`.  Placed before the command line's own
    flags, they pass the same type and choice checks and an explicit flag
    still wins; null leaves the option at its default."""
    try:
        with Path(path).open(encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read config {path}: {exc}", EXIT_USAGE) from exc
    if not isinstance(cfg, dict):
        raise CliError(f"config {path} is not a JSON object", EXIT_USAGE)
    # A sidecar's config names its command; it may only rerun that one.
    named = cfg.pop("command", command)
    if named != command:
        raise CliError(f"config {path} is for {named!r}, not {command!r}", EXIT_USAGE)
    unknown = set(cfg) - set(options)
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}", EXIT_USAGE)
    return [f"--{key.replace('_', '-')}={_flag_text(key, value)}"
            for key, value in cfg.items() if value is not None]


def _write_run(opts: dict, name: str, records, t0: float, diagnostics=None, tables=()) -> None:
    """Write `<name>_results.csv` and its sidecar, then each extra
    `(file, rows)` table, then echo the records on stdout in `--format`."""
    out = Path(opts["out"])
    write_results(records, out / f"{name}_results.csv", config=opts,
                  timing_seconds=time.perf_counter() - t0, diagnostics=diagnostics or None)
    for file, rows in tables:
        write_csv(out / file, rows)
    if opts["format"] == "json":
        print(json_text([asdict(r) for r in records]))
    else:
        print(csv_text(result_rows(records)), end="")


def _gap_record(run_id: str, model: str, est, **fields) -> ResultRecord:
    """The result row of a gap estimate; `l` and `N` come from the estimate."""
    return ResultRecord(
        run_id=run_id, model=model, l=est.l, N=est.N,
        s_hat=est.s_hat, s_se=est.s_se, u_hat=est.u_hat, u_se=est.u_se,
        status=est.status.value, **fields,
    )


def _model_params(opts: dict) -> tuple[float, ...]:
    """(A, V), and (a, b) where the command declares them, from a preset (A1V1 if none); flags win."""
    base = PRESETS["A1V1" if opts["preset"] is None else opts["preset"]]
    return tuple(base[name] if opts[name] is None else opts[name] for name in ("A", "V", "a", "b") if name in opts)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(opts: dict) -> int:
    A, V = _model_params(opts)
    cfg = SimConfig(n=opts["n"], r=opts["r"], A_true=A, V_true=V, seed=opts["seed"])
    t0 = time.perf_counter()
    summary, y = simulate(cfg, return_raw=True)
    out = Path(opts["out"])
    data_path = out / "dataset.csv"
    t_write = time.perf_counter()
    processes = write_dataset(data_path, y)
    write_seconds = time.perf_counter() - t_write
    meta = {
        "config": {**opts, "A": A, "V": V},
        "n": summary.n,
        "r": summary.r,
        "y_bar": summary.y_bar,
        "delta": summary.delta,
        "delta_prime": summary.delta_prime,
        "timing_seconds": time.perf_counter() - t0,
        "write_seconds": write_seconds,
        "writer_processes": processes,
        "versions": versions(),
    }
    write_json(out / "dataset_summary.json", meta)
    print(f"simulated n={summary.n} r={summary.r} A={A} V={V} seed={cfg.seed} -> {data_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate-gap
# ---------------------------------------------------------------------------


def cmd_estimate_gap(opts: dict) -> int:
    ls, N, seed, workers = opts["l_scan"], opts["N"], opts["seed"], opts["workers"]
    A, V, a, b = _model_params(opts)
    hyper = Hyperparams(a=a, b=b, V=V)

    t0 = time.perf_counter()
    if opts["data"] is not None:
        summaries = [read_dataset(opts["data"])]
    else:
        n_grid = sorted(opts["n_grid"])
        master = simulate(SimConfig(n=n_grid[-1], r=1, A_true=A, V_true=V, seed=seed))
        # Nested design: the largest size is the master draw, each smaller
        # one a read-only prefix view of it that summarize keeps without a copy.
        summaries = [master if n == master.n else summarize(master.group_means[:n]) for n in n_grid]

    records, diagnostics = [], []
    for i_n, summary in enumerate(summaries):
        chain = SimpleModelTraceChain(summary, hyper)
        # One trajectory per replicate serves the whole scan.  A scan and a
        # one-l run use the same stream, so their common rows agree.
        scan = estimate_scan(chain, ls, N, _stream(seed, _KEY_GAP, i_n, 0), workers=workers)
        for l, est in zip(ls, scan):
            run_id = f"gap-n{summary.n}-l{l}"
            records.append(_gap_record(run_id, "simple", est, n=summary.n, r=1, a=a, b=b, V=V, seed=seed))
            diagnostics.append({"run_id": run_id, "max_weight_share": est.max_weight_share, "ess": est.ess})
        # The A* proposal follows from the data and the prior; recording it
        # lets a rerun from the sidecar be checked against it.
        diagnostics.append({"n": summary.n, "proposal": chain.proposal.kind, **asdict(chain.proposal)})
        sizes, threads = chunk_layout(N, workers)
        diagnostics.append({"n": summary.n, "chunks": len(sizes), "chunk_size": CHUNK_SIZE, "workers": threads})

    _write_run(opts, "gap", records, t0, diagnostics)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(opts: dict) -> int:
    rhos, ls, N, seed, workers = opts["rhos"], opts["ls"], opts["N"], opts["seed"], opts["workers"]

    t0 = time.perf_counter()
    # Every cell's chain and closed form come first, so a bad rho or
    # proposal sd is found before any Monte Carlo runs.
    cells = []
    for i_r, rho in enumerate(rhos):
        for i_l, l in enumerate(ls):
            sd = opts["proposal_sd"] if opts["proposal_sd"] is not None else ar1_matched_proposal_sd(rho, l)
            cells.append((i_r, i_l, rho, l, sd, Ar1TraceChain(rho=rho, proposal_sd=sd), *ar1_oracle_exact(rho, l)))

    records, report_rows, all_ok = [], [], True
    for i_r, i_l, rho, l, sd, chain, s_exact, u_exact in cells:
        est = estimate(chain, l, N, _stream(seed, _KEY_ORACLE, i_r, i_l), workers=workers)
        ok = abs(est.s_hat - s_exact) < 3.0 * est.s_se if est.s_se > 0 else est.s_hat == s_exact
        all_ok = all_ok and ok
        run_id = f"oracle-rho{rho:g}-l{l}"
        records.append(_gap_record(run_id, "ar1", est, seed=seed))
        report_rows.append(
            [run_id, rho, l, N, sd, est.s_hat, est.s_se, s_exact,
             est.u_hat, est.u_se, u_exact, est.status.value, ok]
        )

    report = [["run_id", "rho", "l", "N", "proposal_sd", "s_hat", "s_se", "s_exact",
               "u_hat", "u_se", "u_exact", "status", "within_3se"], *report_rows]
    _write_run(opts, "oracle", records, t0, tables=[("oracle_report.csv", report)])
    if not all_ok:
        print("oracle validation FAILED: some cells miss the exact value by > 3 SE", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------


def cmd_contraction(opts: dict) -> int:
    shrink = opts["model"] == "shrinkage"
    map_fn, gamma_of, model_name = (
        (beta_map, gamma_shrink, "shrinkage") if shrink else (eta_map, gamma_flat, "flat_replicated")
    )
    bound_ms, a, b, U, w = opts["bound_m"], opts["a"], opts["b"], opts["U"], opts["w"]
    seed, check_pairs, reps, cx_draws = opts["seed"], opts["check_pairs"], opts["reps"], opts["cx"]

    t0 = time.perf_counter()
    # Every cell's closed forms come first, so a bad parameter or a missing
    # bound constant is found before any Monte Carlo runs.
    cells = []
    for n in opts["n_grid"]:
        try:  # r = n**P, and z = (n*r)**2 under nr2, may overflow a double
            r = _r_rule(opts["r_rule"], n)
            z = _z_rule(opts["z_rule"], n, r) if shrink else None
        except OverflowError:
            raise CliError(f"--r-rule {opts['r_rule']}: r or z overflows at n = {n}", EXIT_USAGE) from None
        d = synthetic_summary(n, r, delta_prime=_dprime(opts["dprime"], n), y_bar=opts["ybar"])
        hyper = Hyperparams(a=a, b=b, V=1.0 / U, shrinkage=Shrinkage(w=w, z=z) if shrink else None)
        gamma = gamma_of(n, r, d, hyper)
        gamma_b = gamma if opts["bound_gamma"] is None else opts["bound_gamma"]
        cells.append((n, r, d, z, hyper, gamma, gamma_b))
    # A rate of 1 or more draws no curve; any other (NaN too) needs c_x.
    if (bound_ms is not None and opts["bound_c"] is None and cx_draws == 0
            and any(not gamma_b >= 1.0 for *_, gamma_b in cells)):
        raise CliError("bound curve needs --bound-c or --cx", EXIT_USAGE)

    # Every cell's pair checks and c(x) share one workspace's buffers.
    records, diagnostics, bound_rows, ws = [], [], [], Workspace()
    for i_n, (n, r, d, z, hyper, gamma, gamma_b) in enumerate(cells):
        t_cell = time.perf_counter()
        gamma_empirical = None
        if check_pairs > 0:
            report = contraction_check(map_fn, n, r, d, hyper, num_pairs=check_pairs,
                                       reps_per_pair=reps, rng=_stream(seed, _KEY_PAIRS, i_n), workspace=ws)
            gamma_empirical = report.gamma_empirical_mean
            diagnostics.append({"n": n, "r": r, "gamma_empirical_ci_halfwidth": report.gamma_empirical_ci_halfwidth,
                                "pairs_tested": report.pairs_tested, "violations": report.violations, "note": report.note})

        c_b = opts["bound_c"]
        if cx_draws > 0:
            cx_est = estimate_cx(map_fn, start_state(map_fn, d), d, hyper, cx_draws, _stream(seed, _KEY_CX, i_n), workspace=ws)
            c_b = cx_est.mean if c_b is None else c_b
            diagnostics.append({"n": n, "r": r, "c_x": cx_est.mean, "c_x_se": cx_est.se})

        if bound_ms is not None:
            if gamma_b >= 1.0:
                diagnostics.append({"n": n, "r": r, "bound": "skipped (gamma >= 1 is vacuous)"})
            else:
                bound_rows += [[model_name, n, r, gamma_b, c_b, m, wasserstein_bound(c_b, gamma_b, m)]
                               for m in bound_ms]

        records.append(ResultRecord(
            run_id=f"ctr-{opts['model']}-n{n}-r{r}", model=model_name, n=n, r=r, a=a, b=b, V=hyper.V,
            w=w if shrink else None, z=z, seed=seed, gamma_formula=gamma, gamma_empirical=gamma_empirical,
        ))
        diagnostics.append({"n": n, "r": r, "seconds": time.perf_counter() - t_cell})

    bounds = [["model", "n", "r", "gamma", "c_x", "m", "bound"], *bound_rows]
    _write_run(opts, "contraction", records, t0, diagnostics,
               tables=[("contraction_bounds.csv", bounds)] if bound_rows else ())
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, results: bool = True) -> None:
    p.add_argument("--seed", type=int, default=0, help="root seed (64-bit)")
    p.add_argument("--out", default="runs", help="output directory")
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    if results:
        p.add_argument("--workers", type=_at_least(1), default=1, help="estimator threads; never change results, no effect in contraction")
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="stdout echo format")


def _add_model(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=PRESETS)
    p.add_argument("--A", type=_real())
    p.add_argument("--V", type=_real())


def build_parser() -> _Parser:
    parser = _Parser(prog="gibbsgap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a dataset and write it with its summary")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--r", type=int, default=1)
    _add_model(p)
    _add_common(p, results=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate-gap", help="eigenvalue-bound sweep for the simple-model chain")
    p.add_argument("--n-grid", type=_list_of(_at_least(2), name="int"), default="100,1000,10000")
    p.add_argument("--l-scan", "--l", type=_list_of(_at_least(1), span=True), default="2..10",
                   help="step counts: one l, a comma list, or a span lo..hi (inclusive)")
    p.add_argument("--N", type=_at_least(2), default=100000)
    _add_model(p)
    p.add_argument("--a", type=_real(), help="prior shape; the preset's when omitted")
    p.add_argument("--b", type=_real(), help="prior scale; the preset's when omitted")
    p.add_argument("--data", help="dataset file (one value per line)")
    _add_common(p)
    p.set_defaults(func=cmd_estimate_gap)

    p = sub.add_parser("oracle", help="validate the estimator against the closed-form autoregression")
    p.add_argument("--rhos", type=_list_of(_real(), name="float"), default="0.25,0.5,0.9")
    p.add_argument("--ls", type=_list_of(_at_least(1)), default="1,2,5")
    p.add_argument("--N", type=_at_least(2), default=100000)
    p.add_argument("--proposal-sd", type=_real())
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("contraction", help="contraction rates, coupling checks, and Wasserstein bound curves")
    p.add_argument("--model", choices=("flat", "shrinkage"), default="flat")
    p.add_argument("--n-grid", type=_list_of(_at_least(2)), default="10,100,1000")
    p.add_argument("--r-rule", type=_r_rule, default="pow:2", help="fixed:K or pow:P")
    p.add_argument("--z-rule", type=_z_rule, default="nr2", help="nr2 or fixed:Z")
    p.add_argument("--a", type=_real(), default=1.0)
    p.add_argument("--b", type=_real(), default=1.0)
    p.add_argument("--U", type=_real(positive=True), default=1.0)
    p.add_argument("--w", type=_real(), default=0.0)
    p.add_argument("--dprime", type=_dprime, default="0", help="group-mean spread: 0, n, or a constant")
    p.add_argument("--ybar", type=_real(), default=0.0)
    p.add_argument("--check-pairs", type=_at_least(0), default=0)
    p.add_argument("--reps", type=_at_least(1), default=10000)
    p.add_argument("--cx", type=_at_least(2, or_zero=True), default=0, help="c(x) draws: 0 (none) or >= 2")
    p.add_argument("--bound-m", type=_list_of(_at_least(0), span=True), help="span of step counts, e.g. 0..10")
    p.add_argument("--bound-c", type=_real())
    p.add_argument("--bound-gamma", type=_real())
    _add_common(p)
    p.set_defaults(func=cmd_contraction)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.config is not None:
            # The file's values are read as flags placed before the command
            # line's own; argparse keeps the last value it sees.
            config_args = _config_args(ns.config, ns.command, _options(ns))
            ns = parser.parse_args([ns.command, *config_args, *argv[1:]])
        return ns.func(_options(ns))
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except ValueError as exc:
        # Library-level guards: bad parameters, too-small data, vacuous bounds.
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
