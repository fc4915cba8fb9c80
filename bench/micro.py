"""Measurements of single layers made outside the workloads: the
distribution kernels in isolation, and the thread-pool speed-up of one
estimator cell.  Both run untraced."""

from __future__ import annotations

import time
from pathlib import Path
from statistics import median

# Full-size parameters; the smoke test passes smaller ones.
LAYER_SIZES = {
    "kernel_n": 10000, "batch": 16384, "kernel_repeats": 25,
    "workers_n": 10000, "workers_N": 1000000, "workers_l": 2, "workers_pairs": 3,
}


def _ns_per_item(fn, items: int, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e9 * median(times) / items


def kernel_ns(seed: int, sizes: dict) -> dict[str, float]:
    """ns per draw or evaluation of each kernel the simple-model weights use,
    at one chunk's batch size and the parameters of the n = kernel_n cell
    (prior a = 2, b = 1, V = 1; A drawn from its conditional)."""
    import numpy as np
    from gibbsgap.data_io import SimConfig, simulate
    from gibbsgap.distributions import (
        invgamma_log_pdf, invgamma_sample, noncentral_chisq_sample, normal_log_pdf)

    n, batch, repeats = sizes["kernel_n"], sizes["batch"], sizes["kernel_repeats"]
    d = simulate(SimConfig(n=n, r=1, A_true=1.0, V_true=1.0, seed=seed))
    a, b, V = 2.0, 1.0, 1.0
    rng = np.random.default_rng(seed)
    A = invgamma_sample(a, b, rng, size=batch)
    phi = A * d.delta / (2.0 * V * (A + V))
    ss = A * V / (A + V) * noncentral_chisq_sample(n - 1, phi, rng)
    shape, scale = a + (n - 1) / 2.0, b + ss / 2.0
    mu = d.y_bar + rng.standard_normal(batch)
    log_pdfs = lambda: (invgamma_log_pdf(A, shape, scale), normal_log_pdf(mu, d.y_bar, A / n))
    return {
        "distributions.ncx2_ns": _ns_per_item(
            lambda: noncentral_chisq_sample(n - 1, phi, rng), batch, repeats),
        "distributions.invgamma_ns": _ns_per_item(
            lambda: invgamma_sample(shape, scale, rng), batch, repeats),
        "distributions.normal_ns": _ns_per_item(
            lambda: rng.standard_normal(batch), batch, repeats),
        "distributions.logpdf_ns": _ns_per_item(log_pdfs, 2 * batch, repeats),
    }


def workers2_speedup(seed: int, sizes: dict, out: Path, run_cli, cells) -> float:
    """1-worker over 2-worker wall time of one estimate-gap cell, median over
    alternating pairs.  Each pair is a checked cell: both runs must succeed
    and write byte-identical CSVs."""
    times: dict[int, list[float]] = {1: [], 2: []}
    for i in range(sizes["workers_pairs"]):
        csvs, problem = {}, None
        for workers in ((1, 2) if i % 2 == 0 else (2, 1)):
            argv = ["estimate-gap", "--n-grid", sizes["workers_n"], "--l", sizes["workers_l"],
                    "--N", sizes["workers_N"], "--workers", workers, "--seed", seed,
                    "--out", out / f"w{workers}"]
            t = time.perf_counter()
            code, _, _ = run_cli(argv)
            times[workers].append(time.perf_counter() - t)
            if code != 0:
                problem = f"estimate-gap --workers {workers} exited {code}"
            else:
                csvs[workers] = (out / f"w{workers}" / "gap_results.csv").read_bytes()
        if problem is None and csvs[1] != csvs[2]:
            problem = "1- and 2-worker CSVs differ"
        cells.judge(f"workers-pair{i}", problem)
    return median(times[1]) / median(times[2])
