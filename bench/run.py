"""Benchmark of the gibbsgap command-line workloads.

Run from the repository root:

    python3 bench/run.py --workload gap-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload in turn

A run sets up the workload (imports gibbsgap and derives the inputs from the
seed), then calls gibbsgap.cli.main in-process, closed loop, for --seconds,
and checks every output cell of every iteration.  It prints each metric by
name and unit; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics; --trace 1 is a separate run that reports the per-layer metrics
from spans around the calls into each module.  METRICS.md says what each
metric is and which workload it should move.  Exit code 0 when every cell
passes its check, 1 when one fails, 2 when the checkout has no gibbsgap
sources.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

from micro import LAYER_SIZES, kernel_ns, workers2_speedup  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS, Cells  # noqa: E402

# Set-ups per run whose median is setup_s: this process plus fresh ones.
SETUP_REPEATS = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "time_to_1pct_s": "s"}

PER_LAYER_UNITS = {
    "distributions.ncx2_ns": "ns", "distributions.invgamma_ns": "ns",
    "distributions.normal_ns": "ns", "distributions.logpdf_ns": "ns",
    "distributions.self_s": "s",
    "simple_gibbs.step_ns": "ns", "simple_gibbs.replicate_steps": "count",
    "simple_gibbs.self_s": "s",
    "spectral_estimator.self_s": "s", "spectral_estimator.chunks": "count",
    "spectral_estimator.cells_not_ok": "count", "spectral_estimator.workers2_speedup": "x",
    "replicate_chains.check_s": "s", "replicate_chains.pair_s_n1000": "s",
    "replicate_chains.pair_reps": "count", "replicate_chains.bytes_computed": "bytes",
    "replicate_chains.cx_s": "s",
    "model_core.summarize_s": "s",
    "data_io.read_s": "s", "data_io.read_rows_per_s": "1/s", "data_io.bytes_read": "bytes",
    "data_io.simulate_s": "s", "data_io.write_results_s": "s",
    "cli.self_s": "s", "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


class NoSources(Exception):
    """The checkout holds no gibbsgap package to benchmark."""


def set_up(workload: str, seed: int, sizes: dict):
    """Import gibbsgap from this checkout and derive the workload's inputs;
    returns the workload and the seconds that took."""
    if not (SRC / "gibbsgap" / "__init__.py").is_file():
        raise NoSources(f"no gibbsgap sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import gibbsgap

    if Path(gibbsgap.__file__).resolve().parent != (SRC / "gibbsgap").resolve():
        raise NoSources(f"gibbsgap was imported from {gibbsgap.__file__}, not from {SRC}")
    wl = WORKLOADS[workload](seed, sizes)
    return wl, time.perf_counter() - t


def probe_set_up(workload: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def call_cli(argv: list) -> tuple[int, str, str]:
    """gibbsgap.cli.main with its stdout and stderr captured."""
    from gibbsgap import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except Exception:  # an escaped exception is a failed command, not a crash
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def iteration(wl, out: Path, tracer: Tracer | None) -> tuple[float, Cells, int | None]:
    """Run the workload's commands once and check them; returns the wall
    time, the checked cells and, when traced, the root span's index."""
    shutil.rmtree(out, ignore_errors=True)
    codes, root = {}, None
    commands = wl.commands(out)
    if tracer is None:
        t = time.perf_counter()
        for key, argv in commands:
            codes[key] = call_cli(argv)[0]
        wall = time.perf_counter() - t
    else:
        with tracer.installed(), tracer.span("iteration", "bench") as rec:
            root = len(tracer.spans) - 1
            for key, argv in commands:
                with tracer.span("cli.main", "cli") as main_rec:
                    codes[key], stdout, _ = call_cli(argv)
                main_rec["bytes_written"] = len(stdout.encode()) + _tree_bytes(
                    Path(argv[argv.index("--out") + 1]))
        wall = rec["end"] - rec["start"]
    cells = Cells()
    wl.check(out, codes, cells)
    return wall, cells, root


def host_facts(seed: int) -> dict:
    import numpy
    import scipy

    import gibbsgap

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30,
                                  env={**os.environ, "GIT_DIR": str(ROOT / ".git")})
            commit = proc.stdout.strip() if proc.returncode == 0 else "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "gibbsgap": gibbsgap.__version__,
        "commit": commit, "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None,
        layer_sizes: dict = LAYER_SIZES, setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the result with its metrics and notes."""
    load_before = os.getloadavg()
    wl, setup_s = set_up(workload, seed, sizes or SIZES[workload])
    setups = [setup_s]
    probes = 0 if trace else setup_repeats - 1

    WORK.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    roots, spent, attempted, failed, reasons = [], [], 0, 0, []
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{workload}-") as tmp:
        out = Path(tmp)
        start = time.perf_counter()
        # Stop before the iteration that would overrun --seconds; a traced
        # run alternates untraced and traced iterations and needs one of each.
        # The set-ups in fresh interpreters are spread over the run, outside
        # its clock, so they sample the same stretch of time as the
        # iterations.
        while True:
            traced = trace and len(walls[False]) > len(walls[True])
            t = time.perf_counter()
            wall, cells, root = iteration(wl, out / "run", tracer if traced else None)
            spent.append(time.perf_counter() - t)
            walls[traced].append(wall)
            if root is not None:
                roots.append(root)
            relvars = cells.relvars
            attempted, failed = attempted + cells.attempted, failed + cells.failed
            reasons += cells.reasons
            elapsed = time.perf_counter() - start
            if len(setups) <= probes and elapsed >= len(setups) * seconds / (probes + 1):
                t = time.perf_counter()
                setups.append(probe_set_up(workload, seed))
                start += time.perf_counter() - t
            enough = walls[False] and (walls[True] or not trace)
            if enough and time.perf_counter() - start + median(spent) > seconds:
                break
        setups += [probe_set_up(workload, seed) for _ in range(probes + 1 - len(setups))]
        if trace:
            metrics = layer_metrics(tracer.spans, roots)
            metrics.update(kernel_ns(seed, layer_sizes))
            extra = Cells()
            metrics["spectral_estimator.workers2_speedup"] = workers2_speedup(
                seed, layer_sizes, out / "workers", call_cli, extra)
            attempted, failed = attempted + extra.attempted, failed + extra.failed
            reasons += extra.reasons
            metrics["trace.overhead_s"] = median(walls[True]) - median(walls[False])
        else:
            wall_s = median(walls[False])
            ttp = (wall_s * math.exp(sum(map(math.log, relvars)) / len(relvars)) / 1e-4
                   if relvars else None)
            metrics = {
                "wall_s": wall_s,
                "setup_s": median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "time_to_1pct_s": ttp,
            }
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    facts = {**host_facts(seed), "loadavg_before": load_before, "loadavg_after": os.getloadavg()}
    result = {
        "workload": workload, "seconds": seconds, "trace": int(trace), "facts": facts,
        "iterations": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "samples": ({"untraced wall_s": walls[False], "traced wall_s": walls[True]} if trace
                    else {"wall_s": walls[False], "setup_s": setups}),
        "reasons": reasons,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    if trace:
        path = WORK / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps({"facts": facts, "spans": tracer.spans}) + "\n", encoding="utf-8")
        result["trace_file"] = str(path)
    return result


def report(result: dict, stream=sys.stdout) -> None:
    """Human-readable lines, then the one-line JSON result."""
    print(f"# workload={result['workload']} seconds={result['seconds']} trace={result['trace']}"
          f" iterations={result['iterations']}", file=stream)
    print(f"# host {json.dumps(result['facts'])}", file=stream)
    if "trace_file" in result:
        print(f"# spans written to {result['trace_file']}", file=stream)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}", file=stream)
    for name, values in result["samples"].items():
        print(f"# {name} samples ({len(values)}): {' '.join(f'{v:.4f}' for v in values)}", file=stream)
    print(f"failed_frac {result['failed']}/{result['attempted']} "
          f"(output cells failing their check / cells checked)", file=stream)
    for reason in result["reasons"][:20]:
        print(f"# FAILED {reason}", file=stream)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}),
          file=stream)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measuring time per run (BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print the seconds")
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", w,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], cwd=ROOT).returncode
                 for w in WORKLOADS]
        return max(codes)
    try:
        if args.setup_only:
            print(set_up(args.workload, args.seed, SIZES[args.workload])[1])
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except NoSources as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
