"""Reduced-size smoke test of the benchmark itself: every metric that
BENCHMARK.json names is printed with its unit, a corrupted output cell is
counted as failed, and a checkout without sources is refused."""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {
    "gap-sweep": {"n_grid": [20, 50], "l_scan": (2, 3), "N": 3000,
                  "rhos": [0.5], "ls": [1, 2], "oracle_N": 3000},
    "contraction": {"n_grid": [10, 20], "pairs": 1, "reps": 200, "cx": 50,
                    "bound_m": (0, 3), "shrink_r": 100},
    "ingest": {"n": 500, "l": 2, "N": 3000},
}
SMALL_LAYERS = {"kernel_n": 50, "batch": 256, "kernel_repeats": 2, "workers_n": 50,
                "workers_N": 40000, "workers_l": 2, "workers_pairs": 1}


def _small_run(monkeypatch, tmp_path, workload, trace):
    monkeypatch.setattr(run, "WORK", tmp_path)
    result = run.run(workload, seed=3, seconds=0.0, trace=trace, sizes=SMALL[workload],
                     layer_sizes=SMALL_LAYERS, setup_repeats=1)
    printed = io.StringIO()
    run.report(result, printed)
    return result, printed.getvalue().splitlines()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_named_metric_is_printed_with_its_unit(monkeypatch, tmp_path, workload, trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    named = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}

    result, lines = _small_run(monkeypatch, tmp_path, workload, trace)

    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    assert {k: m["unit"] for k, m in final["metrics"].items()} == named
    for name, unit in named.items():
        value = final["metrics"][name]["value"]
        assert isinstance(value, (int, float)), name
        assert f"{name} {value} {unit}" in lines
    assert any(line.startswith("failed_frac 0/") for line in lines)


def test_corrupted_output_cell_is_counted_as_failed(monkeypatch, tmp_path):
    cls = WORKLOADS["gap-sweep"]
    check = cls.check

    def corrupt_then_check(self, out, codes, cells):
        path = out / "gap" / "gap_results.csv"
        header, first, *rest = path.read_text(encoding="utf-8").splitlines()
        row = first.split(",")
        row[header.split(",").index("s_hat")] = "nan"
        path.write_text("\n".join([header, ",".join(row), *rest]) + "\n", encoding="utf-8")
        check(self, out, codes, cells)

    monkeypatch.setattr(cls, "check", corrupt_then_check)
    result, lines = _small_run(monkeypatch, tmp_path, "gap-sweep", False)

    final = json.loads(lines[-1])
    assert final["failed"] == 1 and not final["correct"]
    assert f"failed_frac 1/{final['attempted']}" in " ".join(lines)
    assert any("non-finite s_hat" in reason for reason in result["reasons"])


def test_checkout_without_sources_is_refused(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ingest", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
