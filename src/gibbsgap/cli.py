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
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .data_io import ResultRecord, SimConfig, csv_text, read_dataset, result_rows, simulate, synthetic_summary, write_csv, write_dataset, write_json, write_results
from .model_core import Hyperparams, Shrinkage, summarize
from .replicate_chains import beta_map, contraction_check, estimate_cx, eta_map, gamma_flat, gamma_shrink, start_state, wasserstein_bound
from .simple_gibbs import SimpleModelTraceChain
from .spectral_estimator import Ar1TraceChain, ar1_matched_proposal_sd, ar1_oracle_exact, estimate

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


def _parse_int_list(value) -> list[int]:
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    return [int(tok) for tok in str(value).split(",") if tok.strip()]


def _parse_float_list(value) -> list[float]:
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return [float(tok) for tok in str(value).split(",") if tok.strip()]


def _parse_span(value) -> list[int]:
    """"lo..hi" (inclusive) or a comma list."""
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    text = str(value)
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty span {text!r}")
        return list(range(lo, hi + 1))
    return _parse_int_list(text)


def _parse_r_rule(value):
    """'fixed:K' or 'pow:P' (r = n**P, rounded)."""
    kind, _, arg = str(value).partition(":")
    if kind == "fixed":
        k = int(arg)
        return lambda n: k
    if kind == "pow":
        p = float(arg)
        return lambda n: max(1, round(n**p))
    raise ValueError(f"unknown r-rule {value!r} (use fixed:K or pow:P)")


def _parse_z_rule(value):
    """'nr2' (z = (n*r)**2) or 'fixed:Z'."""
    text = str(value)
    if text == "nr2":
        return lambda n, r: float(n * r) ** 2
    kind, _, arg = text.partition(":")
    if kind == "fixed":
        z = float(arg)
        return lambda n, r: z
    raise ValueError(f"unknown z-rule {value!r} (use nr2 or fixed:Z)")


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _resolve(ns: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults, then the JSON config file, then explicit flags."""
    provided = {k: v for k, v in vars(ns).items() if k not in ("command", "func")}
    merged = dict(defaults)
    cfg_path = provided.pop("config", None)
    if cfg_path is not None:
        try:
            with Path(cfg_path).open(encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config {cfg_path}: {exc}", EXIT_USAGE) from exc
        if not isinstance(file_cfg, dict):
            raise CliError(f"config {cfg_path} is not a JSON object", EXIT_USAGE)
        # A sidecar's config names its command; it may only rerun that one.
        command = file_cfg.pop("command", ns.command)
        if command != ns.command:
            raise CliError(
                f"config {cfg_path} is for {command!r}, not {ns.command!r}", EXIT_USAGE
            )
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}", EXIT_USAGE)
        merged.update(file_cfg)
    merged.update(provided)
    return merged


def _echo(records, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([asdict(r) for r in records], indent=2))
    else:
        print(csv_text(result_rows(records)), end="")


def _model_params(opts: dict) -> tuple[float, float, float, float]:
    """(A, V, a, b) from a preset or explicit flags (flags win)."""
    preset = opts.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise CliError(
                f"unknown preset {preset!r} (choose from {', '.join(PRESETS)})",
                EXIT_USAGE,
            )
        base = dict(PRESETS[preset])
    else:
        base = {"A": 1.0, "V": 1.0, "a": 2.0, "b": 1.0}
    for name in ("A", "V", "a", "b"):
        if opts.get(name) is not None:
            base[name] = float(opts[name])
    return base["A"], base["V"], base["a"], base["b"]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIMULATE_DEFAULTS = {
    "n": 1000, "r": 1, "preset": None, "A": None, "V": None, "a": None, "b": None,
    "seed": 0, "out": "runs",
}


def cmd_simulate(opts: dict) -> int:
    A, V, a, b = _model_params(opts)
    cfg = SimConfig(n=int(opts["n"]), r=int(opts["r"]), A_true=A, V_true=V, seed=int(opts["seed"]))
    t0 = time.perf_counter()
    summary, y = simulate(cfg, return_raw=True)
    out = Path(opts["out"])
    data_path = out / "dataset.csv"
    write_dataset(data_path, y)
    meta = {
        "config": {"command": "simulate", **opts, "A": A, "V": V, "a": a, "b": b},
        "n": summary.n,
        "r": summary.r,
        "y_bar": summary.y_bar,
        "delta": summary.delta,
        "delta_prime": summary.delta_prime,
        "timing_seconds": time.perf_counter() - t0,
    }
    write_json(out / "dataset_summary.json", meta)
    print(f"simulated n={summary.n} r={summary.r} A={A} V={V} seed={cfg.seed} -> {data_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate-gap
# ---------------------------------------------------------------------------

ESTIMATE_GAP_DEFAULTS = {
    "n_grid": "100,1000,10000", "l": None, "l_scan": None, "N": 100000,
    "preset": None, "A": None, "V": None, "a": None, "b": None, "data": None,
    "seed": 0, "workers": 1, "out": "runs", "format": "csv",
}


def cmd_estimate_gap(opts: dict) -> int:
    if (opts["l"] is None) == (opts["l_scan"] is None):
        raise CliError("give exactly one of --l or --l-scan", EXIT_USAGE)
    ls = [int(opts["l"])] if opts["l"] is not None else _parse_span(opts["l_scan"])
    if any(l < 1 for l in ls):
        raise CliError("l must be >= 1", EXIT_USAGE)
    N = int(opts["N"])
    seed = int(opts["seed"])
    workers = int(opts["workers"])
    A, V, a, b = _model_params(opts)
    hyper = Hyperparams(a=a, b=b, V=V)

    t0 = time.perf_counter()
    if opts["data"] is not None:
        full = read_dataset(opts["data"])
        if full.r != 1:
            raise CliError("estimate-gap needs unreplicated data (r=1)", EXIT_PRECONDITION)
        summaries = [full]
    else:
        n_grid = sorted(_parse_int_list(opts["n_grid"]))
        master = simulate(
            SimConfig(n=max(n_grid), r=1, A_true=A, V_true=V, seed=seed),
            return_raw=True,
        )[1]
        # Nested design: each sweep size is a prefix of the one master draw.
        summaries = [summarize(master[:n], 1) for n in n_grid]

    records, diagnostics = [], []
    for i_n, summary in enumerate(summaries):
        chain = SimpleModelTraceChain(summary, hyper)
        for i_l, l in enumerate(ls):
            est = estimate(chain, l, N, _stream(seed, _KEY_GAP, i_n, i_l), workers=workers)
            run_id = f"gap-n{summary.n}-l{l}"
            records.append(
                ResultRecord(
                    run_id=run_id, model="simple", n=summary.n, r=1,
                    a=a, b=b, V=V, l=l, N=N, seed=seed,
                    s_hat=est.s_hat, s_se=est.s_se,
                    u_hat=est.u_hat, u_se=est.u_se, status=est.status.value,
                )
            )
            diagnostics.append({"run_id": run_id, "max_weight_share": est.max_weight_share})

    out = Path(opts["out"])
    write_results(
        records,
        out / "gap_results.csv",
        config={"command": "estimate-gap", **opts},
        timing_seconds=time.perf_counter() - t0,
        diagnostics=diagnostics,
    )
    _echo(records, opts["format"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

ORACLE_DEFAULTS = {
    "rhos": "0.25,0.5,0.9", "ls": "1,2,5", "N": 100000, "proposal_sd": None,
    "seed": 0, "workers": 1, "out": "runs", "format": "csv",
}


def cmd_oracle(opts: dict) -> int:
    rhos = _parse_float_list(opts["rhos"])
    ls = _parse_int_list(opts["ls"])
    N = int(opts["N"])
    seed = int(opts["seed"])
    workers = int(opts["workers"])

    t0 = time.perf_counter()
    records, report_rows, all_ok = [], [], True
    for i_r, rho in enumerate(rhos):
        for i_l, l in enumerate(ls):
            sd = (
                float(opts["proposal_sd"])
                if opts["proposal_sd"] is not None
                else ar1_matched_proposal_sd(rho, l)
            )
            chain = Ar1TraceChain(rho=rho, proposal_sd=sd)
            est = estimate(chain, l, N, _stream(seed, _KEY_ORACLE, i_r, i_l), workers=workers)
            s_exact, u_exact = ar1_oracle_exact(rho, l)
            ok = abs(est.s_hat - s_exact) < 3.0 * est.s_se if est.s_se > 0 else est.s_hat == s_exact
            all_ok = all_ok and ok
            run_id = f"oracle-rho{rho:g}-l{l}"
            records.append(
                ResultRecord(
                    run_id=run_id, model="ar1", l=l, N=N, seed=seed,
                    s_hat=est.s_hat, s_se=est.s_se,
                    u_hat=est.u_hat, u_se=est.u_se, status=est.status.value,
                )
            )
            report_rows.append(
                [run_id, rho, l, N, sd, est.s_hat, est.s_se, s_exact,
                 est.u_hat, est.u_se, u_exact, est.status.value, ok]
            )

    out = Path(opts["out"])
    write_results(
        records,
        out / "oracle_results.csv",
        config={"command": "oracle", **opts},
        timing_seconds=time.perf_counter() - t0,
    )
    write_csv(
        out / "oracle_report.csv",
        [["run_id", "rho", "l", "N", "proposal_sd", "s_hat", "s_se", "s_exact",
          "u_hat", "u_se", "u_exact", "status", "within_3se"], *report_rows],
    )
    _echo(records, opts["format"])
    if not all_ok:
        print("oracle validation FAILED: some cells miss the exact value by > 3 SE", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

CONTRACTION_DEFAULTS = {
    "model": "flat", "n_grid": "10,100,1000", "r_rule": "pow:2", "z_rule": "nr2",
    "a": 1.0, "b": 1.0, "U": 1.0, "w": 0.0, "dprime": "0", "ybar": 0.0,
    "check_pairs": 0, "reps": 10000, "cx": 0, "bound_m": None,
    "bound_c": None, "bound_gamma": None,
    "seed": 0, "workers": 1, "out": "runs", "format": "csv",
}


def cmd_contraction(opts: dict) -> int:
    model = opts["model"]
    if model not in ("flat", "shrinkage"):
        raise CliError(f"unknown model {model!r} (flat or shrinkage)", EXIT_USAGE)
    n_grid = _parse_int_list(opts["n_grid"])
    r_rule = _parse_r_rule(opts["r_rule"])
    z_rule = _parse_z_rule(opts["z_rule"])
    a, b, U = float(opts["a"]), float(opts["b"]), float(opts["U"])
    w, y_bar = float(opts["w"]), float(opts["ybar"])
    seed = int(opts["seed"])
    check_pairs = int(opts["check_pairs"])
    reps = int(opts["reps"])
    cx_draws = int(opts["cx"])

    def dprime_of(n: int) -> float:
        rule = str(opts["dprime"])
        return float(n) if rule == "n" else float(rule)

    t0 = time.perf_counter()
    records, diagnostics, bound_rows = [], [], []
    for i_n, n in enumerate(n_grid):
        r = r_rule(n)
        d = synthetic_summary(n, r, delta_prime=dprime_of(n), y_bar=y_bar)
        if model == "shrinkage":
            z = z_rule(n, r)
            hyper = Hyperparams(a=a, b=b, V=1.0 / U, shrinkage=Shrinkage(w=w, z=z))
            map_fn, gamma = beta_map, gamma_shrink(n, r, d, hyper)
            model_name = "shrinkage"
        else:
            z = None
            hyper = Hyperparams(a=a, b=b, V=1.0 / U)
            map_fn, gamma = eta_map, gamma_flat(n, r, d, hyper)
            model_name = "flat_replicated"

        gamma_empirical = None
        if check_pairs > 0:
            report = contraction_check(
                map_fn, n, r, d, hyper, num_pairs=check_pairs,
                reps_per_pair=reps, rng=_stream(seed, _KEY_PAIRS, i_n),
            )
            gamma_empirical = report.gamma_empirical_mean
            diagnostics.append(
                {
                    "n": n, "r": r,
                    "gamma_empirical_ci_halfwidth": report.gamma_empirical_ci_halfwidth,
                    "pairs_tested": report.pairs_tested,
                    "violations": report.violations,
                    "note": report.note,
                }
            )

        c_hat = None
        if cx_draws > 0:
            cx_est = estimate_cx(map_fn, start_state(map_fn, d), d, hyper, cx_draws, _stream(seed, _KEY_CX, i_n))
            c_hat = cx_est.mean
            diagnostics.append({"n": n, "r": r, "c_x": cx_est.mean, "c_x_se": cx_est.se})

        if opts["bound_m"] is not None:
            gamma_b = float(opts["bound_gamma"]) if opts["bound_gamma"] is not None else gamma
            c_b = float(opts["bound_c"]) if opts["bound_c"] is not None else c_hat
            if gamma_b >= 1.0:
                diagnostics.append({"n": n, "r": r, "bound": "skipped (gamma >= 1 is vacuous)"})
            elif c_b is None:
                raise CliError("bound curve needs --bound-c or --cx", EXIT_USAGE)
            else:
                for m in _parse_span(opts["bound_m"]):
                    bound_rows.append(
                        [model_name, n, r, gamma_b, c_b, m, wasserstein_bound(c_b, gamma_b, m)]
                    )

        records.append(
            ResultRecord(
                run_id=f"ctr-{model}-n{n}-r{r}", model=model_name, n=n, r=r,
                a=a, b=b, V=1.0 / U, w=(w if model == "shrinkage" else None),
                z=z, seed=seed, gamma_formula=gamma, gamma_empirical=gamma_empirical,
            )
        )

    out = Path(opts["out"])
    write_results(
        records,
        out / "contraction_results.csv",
        config={"command": "contraction", **opts},
        timing_seconds=time.perf_counter() - t0,
        diagnostics=diagnostics or None,
    )
    if bound_rows:
        write_csv(
            out / "contraction_bounds.csv",
            [["model", "n", "r", "gamma", "c_x", "m", "bound"], *bound_rows],
        )
    _echo(records, opts["format"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, results: bool = True) -> None:
    p.add_argument("--seed", type=int, help="root seed (64-bit)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    if results:
        p.add_argument("--workers", type=int, help="estimator threads; never change results, no effect in contraction")
        p.add_argument("--format", choices=("csv", "json"), help="stdout echo format")


def build_parser() -> _Parser:
    parser = _Parser(prog="gibbsgap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", argument_default=argparse.SUPPRESS,
                       help="simulate a dataset and write it with its summary")
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--preset", help=f"one of: {', '.join(PRESETS)}")
    p.add_argument("--A", type=float)
    p.add_argument("--V", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    _add_common(p, results=False)
    p.set_defaults(func=(cmd_simulate, SIMULATE_DEFAULTS))

    p = sub.add_parser("estimate-gap", argument_default=argparse.SUPPRESS,
                       help="eigenvalue-bound sweep for the simple-model chain")
    p.add_argument("--n-grid", dest="n_grid")
    p.add_argument("--l", type=int)
    p.add_argument("--l-scan", dest="l_scan", help="inclusive span lo..hi")
    p.add_argument("--N", type=int)
    p.add_argument("--preset")
    p.add_argument("--A", type=float)
    p.add_argument("--V", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--data", help="dataset file (one value per line)")
    _add_common(p)
    p.set_defaults(func=(cmd_estimate_gap, ESTIMATE_GAP_DEFAULTS))

    p = sub.add_parser("oracle", argument_default=argparse.SUPPRESS,
                       help="validate the estimator against the closed-form autoregression")
    p.add_argument("--rhos")
    p.add_argument("--ls")
    p.add_argument("--N", type=int)
    p.add_argument("--proposal-sd", dest="proposal_sd", type=float)
    _add_common(p)
    p.set_defaults(func=(cmd_oracle, ORACLE_DEFAULTS))

    p = sub.add_parser("contraction", argument_default=argparse.SUPPRESS,
                       help="contraction rates, coupling checks, and Wasserstein bound curves")
    p.add_argument("--model", choices=("flat", "shrinkage"))
    p.add_argument("--n-grid", dest="n_grid")
    p.add_argument("--r-rule", dest="r_rule", help="fixed:K or pow:P")
    p.add_argument("--z-rule", dest="z_rule", help="nr2 or fixed:Z")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--U", type=float)
    p.add_argument("--w", type=float)
    p.add_argument("--dprime", help="group-mean spread: 0, n, or a constant")
    p.add_argument("--ybar", type=float)
    p.add_argument("--check-pairs", dest="check_pairs", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--cx", type=int)
    p.add_argument("--bound-m", dest="bound_m", help="span of step counts, e.g. 0..10")
    p.add_argument("--bound-c", dest="bound_c", type=float)
    p.add_argument("--bound-gamma", dest="bound_gamma", type=float)
    _add_common(p)
    p.set_defaults(func=(cmd_contraction, CONTRACTION_DEFAULTS))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        func, defaults = ns.func
        opts = _resolve(ns, defaults)
        return func(opts)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except ValueError as exc:
        # Library-level guards: bad parameters, too-small data, vacuous bounds.
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
