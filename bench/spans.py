"""Spans recorded around the calls into each gibbsgap module, and the
per-layer metrics derived from them.

Wrappers are installed over the module-level names that callers bind (for
example ``gibbsgap.cli.estimate`` or ``gibbsgap.simple_gibbs.invgamma_sample``)
and removed afterwards; nothing in the package changes.  Spans stay in memory
and are written out when the run ends.  The tracer is single-threaded: it is
installed only around ``--workers 1`` runs.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager
from statistics import median, median_low

# float64 temporaries of shape (reps, n or n+1) that one coupled pair
# materialises in replicate_chains.contraction_check as of this benchmark's
# creation: the noise matrix, five per flat map application (three for the
# location/effect terms, their sum, the concatenation) or four per shrinkage
# application, f(x) - f(y), and the squared entries inside the norm.
# replicate_chains.bytes_computed is derived from this count, not measured.
ARRAYS_PER_PAIR = {"eta_map": 1 + 2 * 5 + 2, "beta_map": 1 + 2 * 4 + 2}


def _steps(args, kwargs, result):
    _, l, size, _ = args
    return {"steps": l * size}


def _status(args, kwargs, result):
    return {"status": result.status.value}


def _pairs(args, kwargs, result):
    return {"model": args[0].__name__, "n": args[1], "pairs": result.pairs_tested,
            "reps": kwargs["reps_per_pair"]}


def _read(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]), "rows": result.n * result.r}


# (module or class path, attribute, layer, span attributes from the call)
TARGETS = [
    ("gibbsgap.cli", "simulate", "data_io", None),
    ("gibbsgap.cli", "read_dataset", "data_io", _read),
    ("gibbsgap.cli", "synthetic_summary", "data_io", None),
    ("gibbsgap.cli", "write_results", "data_io", None),
    ("gibbsgap.cli", "summarize", "model_core", None),
    ("gibbsgap.data_io", "summarize", "model_core", None),
    ("gibbsgap.cli", "estimate", "spectral_estimator", _status),
    ("gibbsgap.cli", "contraction_check", "replicate_chains", _pairs),
    ("gibbsgap.cli", "estimate_cx", "replicate_chains", None),
    ("gibbsgap.cli", "gamma_flat", "replicate_chains", None),
    ("gibbsgap.cli", "gamma_shrink", "replicate_chains", None),
    ("gibbsgap.cli", "wasserstein_bound", "replicate_chains", None),
    ("gibbsgap.simple_gibbs:SimpleModelTraceChain", "draw_log_weights", "simple_gibbs", _steps),
    ("gibbsgap.spectral_estimator:Ar1TraceChain", "draw_log_weights", "spectral_estimator", None),
    ("gibbsgap.simple_gibbs", "noncentral_chisq_sample", "distributions", None),
    ("gibbsgap.simple_gibbs", "invgamma_sample", "distributions", None),
    ("gibbsgap.simple_gibbs", "invgamma_log_pdf", "distributions", None),
    ("gibbsgap.simple_gibbs", "normal_log_pdf", "distributions", None),
    ("gibbsgap.spectral_estimator", "normal_log_pdf", "distributions", None),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """In-memory spans: name, layer, start, end, parent index and any
    attributes taken from the call."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        rec = {"name": name, "layer": layer, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None, **attrs}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name, layer, describe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer) as rec:
                result = fn(*args, **kwargs)
                if describe is not None:
                    rec.update(describe(args, kwargs, result))
                return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for path, attr, layer, describe in TARGETS:
                owner = _owner(path)
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, f"{layer}.{attr}", layer, describe))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def _under(spans: list[dict], root: int) -> list[int]:
    """Indices of the spans descended from `root` (spans are in start order)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i]["parent"] in inside:
            inside.add(i)
    inside.discard(root)
    return sorted(inside)


def iteration_metrics(spans: list[dict], root: int) -> dict[str, float]:
    """Per-layer metrics of one traced workload iteration (span `root`)."""
    idx = _under(spans, root)
    dur = {i: spans[i]["end"] - spans[i]["start"] for i in idx}
    # Calls are sequential, so child spans never overlap and their summed
    # durations are the part of the parent they cover.
    self_s = dict(dur)
    for i in idx:
        parent = spans[i]["parent"]
        if parent in self_s:
            self_s[parent] -= dur[i]

    def total(pick, name=None, layer=None):
        return sum((pick[i] for i in idx
                    if (name is None or spans[i]["name"] == name)
                    and (layer is None or spans[i]["layer"] == layer)), 0.0)

    def where(name):
        return [spans[i] for i in idx if spans[i]["name"] == name]

    steps = sum(s["steps"] for s in where("simple_gibbs.draw_log_weights"))
    step_time = total(dur, name="simple_gibbs.draw_log_weights")
    checks = where("replicate_chains.contraction_check")
    n_top = max((s["n"] for s in checks), default=None)
    top = [(s, s["end"] - s["start"]) for s in checks if s["n"] == n_top]
    top_pairs = sum(s["pairs"] for s, _ in top)
    reads = where("data_io.read_dataset")
    read_s = total(self_s, name="data_io.read_dataset")
    rows = sum(s["rows"] for s in reads)
    return {
        "distributions.self_s": total(self_s, layer="distributions"),
        "simple_gibbs.step_ns": 1e9 * step_time / steps if steps else 0.0,
        "simple_gibbs.replicate_steps": steps,
        "simple_gibbs.self_s": total(self_s, layer="simple_gibbs"),
        "spectral_estimator.self_s": total(self_s, layer="spectral_estimator"),
        "spectral_estimator.chunks": len(where("simple_gibbs.draw_log_weights"))
        + len(where("spectral_estimator.draw_log_weights")),
        "spectral_estimator.cells_not_ok": sum(
            s["status"] != "ok" for s in where("spectral_estimator.estimate")),
        "replicate_chains.check_s": total(dur, name="replicate_chains.contraction_check"),
        "replicate_chains.pair_s_n1000": sum(t for _, t in top) / top_pairs if top_pairs else 0.0,
        "replicate_chains.pair_reps": sum(s["pairs"] * s["reps"] for s in checks),
        "replicate_chains.bytes_computed": sum(
            s["pairs"] * s["reps"] * (s["n"] + 1) * 8 * ARRAYS_PER_PAIR[s["model"]] for s in checks),
        "replicate_chains.cx_s": total(dur, name="replicate_chains.estimate_cx"),
        "model_core.summarize_s": total(self_s, layer="model_core"),
        "data_io.read_s": read_s,
        "data_io.read_rows_per_s": rows / read_s if read_s > 0 else 0.0,
        "data_io.bytes_read": sum(s["bytes"] for s in reads),
        "data_io.simulate_s": total(self_s, name="data_io.simulate"),
        "data_io.write_results_s": total(dur, name="data_io.write_results"),
        "cli.self_s": total(self_s, layer="cli"),
        "cli.bytes_written": sum(s.get("bytes_written", 0) for s in where("cli.main")),
    }


def layer_metrics(spans: list[dict], roots: list[int]) -> dict[str, float]:
    """Median over the traced iterations of each per-layer metric; counts
    stay whole numbers."""
    per_iter = [iteration_metrics(spans, r) for r in roots]
    out = {}
    for k in per_iter[0]:
        values = [m[k] for m in per_iter]
        out[k] = median_low(values) if all(isinstance(v, int) for v in values) else median(values)
    return out
