import argparse
import csv
import errno
import json
import math
import os

import numpy as np
import pytest

import gibbsgap
from gibbsgap import cli, data_io, simple_gibbs, spectral_estimator
from gibbsgap.cli import (
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    EXIT_VALIDATION,
    PRESETS,
    build_parser,
    main,
)
from gibbsgap.data_io import read_dataset, versions
from gibbsgap.replicate_chains import wasserstein_bound
from gibbsgap.spectral_estimator import CHUNK_SIZE


def _run(argv):
    return main(argv)


def _strict_json(text):
    """json.loads that refuses the non-standard NaN/Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def _read_csv(path):
    with path.open(encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--n", "200", "--r", "1", "--A", "1", "--V", "1", "--seed", "7"]
        assert _run(args + ["--out", str(out1)]) == EXIT_OK
        assert _run(args + ["--out", str(out2)]) == EXIT_OK
        assert (out1 / "dataset.csv").read_bytes() == (out2 / "dataset.csv").read_bytes()

    def test_presets_satisfy_prior_mean_rule(self):
        assert len(PRESETS) == 7
        for name, p in PRESETS.items():
            assert p["b"] / (p["a"] - 1) == pytest.approx(p["A"]), name
        pairs = {(p["A"], p["V"]) for p in PRESETS.values()}
        assert pairs == {
            (1.0, 1.0), (10.0, 10.0), (100.0, 100.0),
            (10.0, 1.0), (100.0, 10.0), (1.0, 10.0), (10.0, 100.0),
        }

    def test_preset_flows_into_summary(self, tmp_path):
        out = tmp_path / "sim"
        assert _run(["simulate", "--n", "100", "--preset", "A10V1", "--seed", "1",
                     "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "dataset_summary.json").read_text(encoding="utf-8"))
        assert meta["config"]["A"] == 10.0
        assert meta["config"]["V"] == 1.0

    # The prior IG(a, b) is the sampler's: the data are drawn from A and V alone.
    @pytest.mark.parametrize("flag", [["--workers", "8"], ["--format", "json"], ["--a", "2"], ["--b", "1"]])
    def test_rejects_flags_it_does_not_read(self, tmp_path, capsys, flag):
        out = tmp_path / "sim"
        assert _run(["simulate", "--n", "10", "--out", str(out), *flag]) == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("route", ["flag", "config"])
    @pytest.mark.parametrize("key, value, low", [("n", 1, 2), ("n", -5, 2), ("r", 0, 1)])
    def test_an_out_of_range_count_is_usage_error(self, tmp_path, capsys, route, key, value, low):
        out = tmp_path / "sim"
        if route == "flag":
            args = [f"--{key}", str(value)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}), encoding="utf-8")
            args = ["--config", str(cfg)]
        assert _run(["simulate", *args, "--out", str(out)]) == EXIT_USAGE
        assert f"argument --{key}: must be >= {low}, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["a", "b"])
    def test_config_with_a_prior_key_is_usage_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10, key: 2}), encoding="utf-8")
        out = tmp_path / "sim"
        assert _run(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err
        assert not out.exists()

    def test_replicated_dataset_round_trips(self, tmp_path):
        out = tmp_path / "sim"
        assert _run(["simulate", "--n", "4", "--r", "3", "--seed", "2", "--out", str(out)]) == EXIT_OK
        rows = (out / "dataset.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 4 and all(len(row.split(",")) == 3 for row in rows)
        meta = json.loads((out / "dataset_summary.json").read_text(encoding="utf-8"))
        assert "workers" not in meta["config"] and "format" not in meta["config"]

    def test_summary_records_versions(self, tmp_path):
        # The dataset is a numpy stream, so its summary names the versions
        # a result sidecar does.
        out = tmp_path / "sim"
        assert _run(["simulate", "--n", "10", "--seed", "2", "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "dataset_summary.json").read_text(encoding="utf-8"))
        assert meta["versions"] == versions()

    @pytest.mark.parametrize("cpus, processes", [(1, 1), (2, 2)])
    def test_summary_records_the_write(self, tmp_path, monkeypatch, cpus, processes):
        # 70 000 rows are two 65 536-row blocks, one per usable CPU.
        monkeypatch.setattr(data_io, "_usable_cpus", lambda: cpus)
        out = tmp_path / "sim"
        assert _run(["simulate", "--n", "70000", "--seed", "2", "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "dataset_summary.json").read_text(encoding="utf-8"))
        assert meta["writer_processes"] == processes
        assert 0 < meta["write_seconds"] <= meta["timing_seconds"]

    @pytest.mark.parametrize("r", [1, 3])
    def test_dataset_reads_back_to_its_summary(self, tmp_path, r):
        out = tmp_path / "sim"
        assert _run(["simulate", "--n", "3000", "--r", str(r), "--seed", "5",
                     "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "dataset_summary.json").read_text(encoding="utf-8"))
        back = read_dataset(out / "dataset.csv")
        assert (back.n, back.r, back.y_bar, back.delta) == (meta["n"], r, meta["y_bar"], meta["delta"])


class TestEstimateGap:
    def test_small_run_and_rerun_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["estimate-gap", "--n-grid", "50", "--l", "2", "--N", "4000",
                "--preset", "A1V1", "--seed", "3"]
        assert _run(args + ["--out", str(out1)]) == EXIT_OK
        assert _run(args + ["--out", str(out2)]) == EXIT_OK
        assert (out1 / "gap_results.csv").read_bytes() == (out2 / "gap_results.csv").read_bytes()
        rows = _read_csv(out1 / "gap_results.csv")
        assert len(rows) == 1
        assert rows[0]["model"] == "simple"
        assert rows[0]["status"] in ("ok", "s_not_above_one", "high_variance")

    def test_each_sweep_size_is_summarized_once(self, tmp_path, monkeypatch):
        calls = []
        for module in (cli, data_io):
            monkeypatch.setattr(module, "summarize", lambda y, run=module.summarize: calls.append(len(y)) or run(y))
        args = ["estimate-gap", "--n-grid", "100,1000,3000", "--l", "2", "--N", "2000", "--seed", "4"]
        assert _run([*args, "--out", str(tmp_path / "once")]) == EXIT_OK
        assert sorted(calls) == [100, 1000, 3000]
        # The largest size is the master draw's own summary: summarizing the
        # draw a second time changes no byte.
        simulate = cli.simulate
        monkeypatch.setattr(cli, "simulate", lambda cfg: cli.summarize(simulate(cfg).group_means[:cfg.n]))
        assert _run([*args, "--out", str(tmp_path / "twice")]) == EXIT_OK
        assert sorted(calls[3:]) == [100, 1000, 3000, 3000]
        assert (tmp_path / "once" / "gap_results.csv").read_bytes() == (tmp_path / "twice" / "gap_results.csv").read_bytes()

    def test_worker_count_is_invisible_in_output(self, tmp_path):
        outs = []
        for workers in ("1", "8"):
            out = tmp_path / f"w{workers}"
            args = ["estimate-gap", "--n-grid", "60", "--l-scan", "1..3", "--N", "40000",
                    "--preset", "A1V1", "--seed", "5", "--workers", workers, "--out", str(out)]
            assert _run(args) == EXIT_OK
            outs.append((out / "gap_results.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_worker_count_is_invisible_in_mixture_output(self, tmp_path, monkeypatch):
        monkeypatch.setattr(simple_gibbs, "MIXTURE_MIN_SPREAD_RATIO", 0.0)
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            args = ["estimate-gap", "--n-grid", "60", "--l-scan", "1..3", "--N", "40000",
                    "--preset", "A1V1", "--seed", "5", "--workers", workers, "--out", str(out)]
            assert _run(args) == EXIT_OK
            outs.append((out / "gap_results.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_small_n_violates_trace_class_precondition(self, tmp_path, capsys):
        code = _run(["estimate-gap", "--n-grid", "2", "--l", "2", "--N", "100",
                     "--out", str(tmp_path)])
        assert code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "trace-class" in err and "n >= 3" in err

    def test_replicated_data_violates_the_r1_precondition(self, tmp_path, capsys):
        data = tmp_path / "y.csv"
        data.write_text("".join(f"{i},{i + 1},{i + 2}\n" for i in range(10)), encoding="utf-8")
        out = tmp_path / "run"
        code = _run(["estimate-gap", "--data", str(data), "--l", "1", "--N", "1000", "--out", str(out)])
        assert code == EXIT_PRECONDITION
        assert "r=1" in capsys.readouterr().err
        assert not out.exists()

    def test_dataset_file_source(self, tmp_path):
        data = tmp_path / "y.csv"
        data.write_text("\n".join(str(v) for v in range(10)) + "\n", encoding="utf-8")
        out = tmp_path / "run"
        assert _run(["estimate-gap", "--data", str(data), "--l", "1", "--N", "2000",
                     "--out", str(out)]) == EXIT_OK
        rows = _read_csv(out / "gap_results.csv")
        assert rows[0]["n"] == "10"

    def test_non_finite_data_is_a_precondition_violation(self, tmp_path, capsys):
        data = tmp_path / "y.csv"
        data.write_text("1.0\n2.0\nnan\n3.0\n", encoding="utf-8")
        code = _run(["estimate-gap", "--data", str(data), "--l", "1", "--N", "1000",
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_PRECONDITION
        assert "non-finite value in row 3" in capsys.readouterr().err

    def test_overflowing_data_is_rejected_at_the_data(self, tmp_path, capsys):
        # Finite values whose spread overflows once ended in numpy's Poisson
        # error "lam value too large".
        data = tmp_path / "y.csv"
        data.write_text("1e308\n-1e308\n1.5e308\n-1.2e308\n0\n", encoding="utf-8")
        code = _run(["estimate-gap", "--data", str(data), "--l", "2", "--N", "2000",
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "overflows a double" in err and "lam" not in err

    # At prior shape 0.01 one A* draw in 16 384 is inf; it once made the
    # noncentrality NaN and ended in numpy's Poisson error "lam value too
    # large".  At a subnormal scale 1/b overflows, so every A* draw is 0;
    # each row once read nonfinite_weights after eight RuntimeWarnings.
    @pytest.mark.parametrize("argv, prior", [
        (["--a", "0.01", "--l", "2"], "a = 0.01"),
        (["--b", "1e-310", "--l-scan", "1..3"], "b = 1e-310"),
    ], ids=["tiny-shape", "subnormal-scale"])
    def test_overflowed_variance_draw_is_named(self, tmp_path, capsys, argv, prior):
        out = tmp_path / "run"
        code = _run(["estimate-gap", *argv, "--n-grid", "100", "--N", "20000", "--out", str(out)])
        assert code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "A*" in err and prior in err and "lam" not in err
        assert not out.exists()

    # The noncentrality A delta / (2 V (A + V)) passes numpy's Poisson limit
    # (~9.2e18), or overflows to inf at V = 1e-320; each ended in numpy's
    # error "lam value too large", the second after an overflow warning.
    # With A* and V near 1e300 the auxiliary location variance overflowed,
    # and the run exited 0 with a NaN row after three RuntimeWarnings; with
    # b = 1e300 too, A V overflowed and the Poisson sampler's ceiling was
    # blamed for a NaN noncentrality.  The conditional mean of the effects,
    # and a noncentrality of inf / inf, overflow at other scales.
    @pytest.mark.parametrize("argv, named", [
        (["--V", "1e-300"], ["noncentrality", "at n = 100, delta = ", "V = 1e-300,"]),
        (["--V", "1e-320"], ["noncentrality A delta / (2 V (A + V)) overflows a double", "at n = 100, delta = ",
                             "V = 1e-320 ("]),
        (["--A", "1e300"], ["noncentrality", "at n = 100, delta = ", "V = 1,"]),
        (["--A", "1e300", "--V", "1e300"], ["(A + V)(A + 4V)/(nA) overflows a double", "at n = 100, V = 1e+300"]),
        (["--A", "1e300", "--V", "1e300", "--b", "1e300"],
         ["A V/(A + V) overflows a double", "at n = 100, V = 1e+300"]),
        (["--b", "1e100", "--V", "1e200"], ["(V mu + A y_bar)/(A + V) overflows a double", "at n = 100, V = 1e+200"]),
        (["--A", "1e248", "--V", "1e160", "--b", "1e100"],
         ["noncentrality A delta / (2 V (A + V)) overflows a double", "at n = 100, delta = ", "V = 1e+160 ("]),
    ], ids=["V-tiny", "V-subnormal", "A-huge", "aux-variance", "conditional-variance", "conditional-mean",
            "noncentrality-inf-over-inf"])
    def test_overflowing_chain_quantity_is_named(self, tmp_path, capsys, argv, named):
        out = tmp_path / "run"
        code = _run(["estimate-gap", *argv, "--n-grid", "100", "--l", "2", "--N", "1000", "--out", str(out)])
        assert code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert all(text in err for text in named) and "lam" not in err and "nan" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text, reason", [
        ("", "empty dataset"),
        ("1.5\n", "at least 2 groups"),
        ("1\n2,3\n4\n", "line 2"),
        ("1\n\nx\n", "line 3"),
    ])
    def test_unusable_data_is_a_precondition_violation(self, tmp_path, capsys, text, reason):
        data = tmp_path / "y.csv"
        data.write_text(text, encoding="utf-8")
        code = _run(["estimate-gap", "--data", str(data), "--l", "1", "--N", "1000",
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_PRECONDITION
        assert reason in capsys.readouterr().err

    def test_huge_prior_scale_keeps_finite_weights(self, tmp_path):
        # (A+V)(A+4V) overflowed for A near b = 1e300 and made every weight NaN.
        out = tmp_path / "run"
        assert _run(["estimate-gap", "--n-grid", "100,1000", "--l", "2", "--N", "20000",
                     "--b", "1e300", "--out", str(out)]) == EXIT_OK
        rows = _read_csv(out / "gap_results.csv")
        assert len(rows) == 2
        assert all(row["status"] != "nonfinite_weights" for row in rows)

    def test_all_underflow_row_is_named(self, tmp_path, monkeypatch):
        # Under the prior proposal every n = 1000 weight underflows: s_hat
        # and s_se read 0.0, and the status says why.  The mixture proposal,
        # which this data selects, gives the row a usable estimate.
        argv = ["estimate-gap", "--n-grid", "100,1000", "--l", "2", "--N", "20000",
                "--b", "1e300"]
        assert _run(argv + ["--out", str(tmp_path / "mix")]) == EXIT_OK
        monkeypatch.setattr(simple_gibbs, "MIXTURE_MIN_SPREAD_RATIO", math.inf)
        assert _run(argv + ["--out", str(tmp_path / "prior")]) == EXIT_OK
        prior = _read_csv(tmp_path / "prior" / "gap_results.csv")
        assert (prior[1]["s_hat"], prior[1]["s_se"], prior[1]["status"]) == ("0.0", "0.0", "s_underflow")
        assert prior[0]["status"] != "s_underflow"
        mixture = _read_csv(tmp_path / "mix" / "gap_results.csv")[1]
        assert float(mixture["s_hat"]) > 0.5 and mixture["status"] != "s_underflow"
        sidecar = json.loads((tmp_path / "mix" / "gap_results.json").read_text(encoding="utf-8"))
        assert [e["proposal"] for e in sidecar["diagnostics"] if "proposal" in e] == ["prior", "mixture"]

    def test_sidecar_records_the_proposal(self, tmp_path):
        out = tmp_path / "run"
        assert _run(["estimate-gap", "--n-grid", "100,10000", "--l-scan", "2..3", "--N", "2000",
                     "--preset", "A1V1", "--seed", "4", "--out", str(out)]) == EXIT_OK
        sidecar = _strict_json((out / "gap_results.json").read_text(encoding="utf-8"))
        entries = {e["n"]: e for e in sidecar["diagnostics"] if "proposal" in e}
        keys = {"n", "proposal", "eps", "alpha", "beta", "t0", "spread_ratio"}
        assert set(entries) == {100, 10000}
        assert all(set(e) == keys for e in entries.values())
        prior, mixture = entries[100], entries[10000]
        assert (prior["proposal"], prior["eps"], prior["alpha"], prior["beta"]) == ("prior", 1.0, None, None)
        assert prior["spread_ratio"] < simple_gibbs.MIXTURE_MIN_SPREAD_RATIO
        assert (mixture["proposal"], mixture["eps"]) == ("mixture", simple_gibbs.DEFENSIVE_SHARE)
        assert mixture["beta"] / (mixture["alpha"] + 1.0) == pytest.approx(math.exp(mixture["t0"]))
        # The CSV header does not change.
        assert (out / "gap_results.csv").read_text(encoding="utf-8").splitlines()[0] == ",".join(
            ["run_id", "model", "n", "r", "a", "b", "V", "w", "z", "l", "N", "seed", "s_hat", "s_se",
             "u_hat", "u_se", "gamma_formula", "gamma_empirical", "status"])

    def test_sidecar_records_the_chunk_layout(self, tmp_path):
        # 16 385 replicates are two chunks, so a third worker has nothing to do.
        out = tmp_path / "run"
        assert _run(["estimate-gap", "--n-grid", "100,1000", "--l", "2", "--N", str(CHUNK_SIZE + 1),
                     "--workers", "3", "--seed", "4", "--out", str(out)]) == EXIT_OK
        sidecar = _strict_json((out / "gap_results.json").read_text(encoding="utf-8"))
        layout = [e for e in sidecar["diagnostics"] if "chunks" in e]
        assert layout == [{"n": n, "chunks": 2, "chunk_size": CHUNK_SIZE, "workers": 2} for n in (100, 1000)]

    def test_overflowing_variance_is_flagged(self, tmp_path):
        # A near-zero prior scale makes the weights' variance overflow.
        out = tmp_path / "run"
        assert _run(["estimate-gap", "--n-grid", "100", "--l", "2", "--N", "20000",
                     "--b", "1e-300", "--out", str(out)]) == EXIT_OK
        row = _read_csv(out / "gap_results.csv")[0]
        assert row["s_se"] == "inf"
        assert math.isfinite(float(row["s_hat"]))
        assert row["status"] == "infinite_se"

    def test_sidecar_is_strict_json(self, tmp_path):
        # The overflowed SE is written as null, not as the non-standard
        # Infinity token; the row's status still says why.
        out = tmp_path / "run"
        assert _run(["estimate-gap", "--n-grid", "100", "--l", "2", "--N", "2000",
                     "--b", "1e-300", "--out", str(out)]) == EXIT_OK
        record = _strict_json((out / "gap_results.json").read_text(encoding="utf-8"))["records"][0]
        assert record["status"] == "infinite_se"
        assert record["s_se"] is None

    def test_json_echo_is_strict_json(self, tmp_path, capsys):
        assert _run(["estimate-gap", "--n-grid", "100", "--l", "2", "--N", "2000",
                     "--b", "1e-300", "--format", "json", "--out", str(tmp_path / "run")]) == EXIT_OK
        record = _strict_json(capsys.readouterr().out)[0]
        assert record["status"] == "infinite_se"
        assert record["s_se"] is None

    def test_sidecar_echoes_config(self, tmp_path):
        out = tmp_path / "run"
        assert _run(["estimate-gap", "--n-grid", "50", "--l", "1", "--N", "1000",
                     "--seed", "11", "--out", str(out)]) == EXIT_OK
        sidecar = json.loads((out / "gap_results.json").read_text(encoding="utf-8"))
        assert sidecar["config"]["command"] == "estimate-gap"
        assert sidecar["config"]["seed"] == 11
        assert sidecar["config"]["N"] == 1000
        assert "diagnostics" in sidecar
        assert "max_weight_share" in sidecar["diagnostics"][0]
        assert 1.0 <= sidecar["diagnostics"][0]["ess"] <= 1000.0
        assert sidecar["versions"]["numpy"] == np.__version__
        assert sidecar["versions"]["gibbsgap"] == gibbsgap.__version__
        assert set(sidecar["versions"]) == {"python", "numpy", "gibbsgap"}

    def test_scan_row_equals_single_l_run(self, tmp_path):
        # The scan's l = 4 row comes from the same trajectories (stream key
        # of the scan's first l) as a run of --l 4 alone.
        rows = {}
        for flag, value in (("--l-scan", "2..5"), ("--l", "4")):
            out = tmp_path / flag.strip("-")
            assert _run(["estimate-gap", "--n-grid", "30,60", flag, value, "--N", "20000",
                         "--seed", "9", "--out", str(out)]) == EXIT_OK
            lines = (out / "gap_results.csv").read_text(encoding="utf-8").splitlines()
            rows[flag] = [line for line in lines[1:] if line.startswith("gap-") and "-l4," in line]
        assert len(rows["--l"]) == 2
        assert rows["--l-scan"] == rows["--l"]


class TestOracle:
    def test_default_style_grid_passes(self, tmp_path):
        out = tmp_path / "run"
        code = _run(["oracle", "--rhos", "0.25,0.5", "--ls", "1,2", "--N", "20000",
                     "--seed", "2", "--out", str(out)])
        assert code == EXIT_OK
        report = _read_csv(out / "oracle_report.csv")
        assert len(report) == 4
        assert "u_exact" in report[0]
        assert all(r["within_3se"] == "True" for r in report)

    @pytest.mark.parametrize("rhos", ["1", "1.5"])
    def test_rho_outside_the_unit_interval_is_a_precondition_violation(self, tmp_path, capsys, rhos):
        code = _run(["oracle", "--rhos", rhos, "--ls", "1", "--N", "2000", "--out", str(tmp_path / "run")])
        assert code == EXIT_PRECONDITION
        assert f"rho must be in (0, 1), got {float(rhos)}" in capsys.readouterr().err

    def test_every_rho_is_checked_before_any_estimate(self, tmp_path, monkeypatch, capsys):
        calls, run = [], cli.estimate
        monkeypatch.setattr(cli, "estimate", lambda *a, **k: calls.append(a[1]) or run(*a, **k))
        out = tmp_path / "run"
        assert _run(["oracle", "--rhos", "0.5,1", "--ls", "1", "--N", "2000", "--out", str(out)]) == EXIT_PRECONDITION
        assert "rho" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_sidecar_records_each_cells_weight_health(self, tmp_path):
        out = tmp_path / "run"
        assert _run(["oracle", "--rhos", "0.5,0.9", "--ls", "1,2", "--N", "2000", "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        sidecar = _strict_json((out / "oracle_results.json").read_text(encoding="utf-8"))
        diagnostics = sidecar["diagnostics"]
        assert [diag["run_id"] for diag in diagnostics] == [row["run_id"] for row in sidecar["records"]]
        assert len(diagnostics) == 4
        for diag in diagnostics:
            assert set(diag) == {"run_id", "max_weight_share", "ess"}
            assert 1.0 <= diag["ess"] <= 2000 and 0.0 < diag["max_weight_share"] <= 1.0

    def test_biased_proposal_fails_validation(self, tmp_path, monkeypatch):
        # A proposal far too narrow never sees the weight mass: the estimate
        # is badly low with a tiny SE, so validation must fail.
        monkeypatch.setattr(cli, "ar1_matched_proposal_sd", lambda rho, l: 0.05)
        code = _run(["oracle", "--rhos", "0.9", "--ls", "1", "--N", "5000",
                     "--seed", "2", "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION

    def test_proposal_sd_is_not_an_option(self, tmp_path, capsys):
        # Below s_k/sqrt(2) an sd gives weights of infinite variance, whose SE
        # measures nothing; every cell uses its matched sd, 1.5 s_k.
        out = tmp_path / "run"
        assert _run(["oracle", "--rhos", "0.5,0.9", "--ls", "1,5", "--N", "2000", "--proposal-sd", "2.0",
                     "--seed", "2", "--out", str(out)]) == EXIT_USAGE
        assert "unrecognized arguments: --proposal-sd 2.0" in capsys.readouterr().err
        assert not out.exists()

    def test_report_records_each_cells_matched_proposal_sd(self, tmp_path):
        out = tmp_path / "run"
        assert _run(["oracle", "--rhos", "0.5,0.9", "--ls", "1,5", "--N", "2000", "--seed", "2",
                     "--out", str(out)]) == EXIT_OK
        for row in _read_csv(out / "oracle_report.csv"):
            rho, l = float(row["rho"]), int(row["l"])
            s_k = math.sqrt(1.0 - rho ** (2 * l)) / (1.0 - rho**l)
            assert float(row["proposal_sd"]) == spectral_estimator.ar1_matched_proposal_sd(rho, l)
            assert float(row["proposal_sd"]) == pytest.approx(1.5 * s_k)  # above s_k/sqrt(2): finite variance


class TestContraction:
    # n = 0 under pow:-1 once ended in a ZeroDivisionError from n**P, and
    # n = -4 under pow:0.5 in a TypeError from rounding a complex r;
    # estimate-gap's n = 0 once failed as "empty input" in `summarize`.
    @pytest.mark.parametrize("command, n_grid, bad, flags", [
        ("contraction", "0", "0", {"r_rule": "pow:-1"}),
        ("contraction", "-4", "-4", {"r_rule": "pow:0.5"}),
        ("contraction", "1", "1", {"r_rule": "pow:2"}),
        ("estimate-gap", "2,0", "0", {"l_scan": 1, "N": 100}),
        ("estimate-gap", "0", "0", {"l_scan": 1, "N": 100}),
        ("estimate-gap", "-5", "-5", {"l_scan": 1, "N": 100}),
    ], ids=["zero", "negative", "one", "gap-list", "gap-zero", "gap-negative"])
    def test_n_below_two_is_usage_error_at_the_flag(self, tmp_path, capsys, command, n_grid, bad, flags):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_grid": n_grid, **flags}), encoding="utf-8")
        flag_argv = ["--n-grid", n_grid, *(f"--{key.replace('_', '-')}={value}" for key, value in flags.items())]
        for argv in (flag_argv, ["--config", str(cfg)]):
            assert _run([command, *argv, "--out", str(out)]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert f"argument --n-grid: must be >= 2, got {bad}" in err and "Traceback" not in err
        assert not out.exists()

    # b**3 and U = 1e-200 under a division underflow to 0; b**3 at 1e200 and
    # (r*U)**2 at 1e300 overflow.  Each once ended in a traceback.  A huge
    # delta' over a small b**3 is a quotient that reaches inf without
    # raising, once a row with an inf rate and no status.
    @pytest.mark.parametrize("argv", [
        ["--b", "1e-120"], ["--b", "1e200"], ["--U", "1e-200"], ["--U", "1e300"],
        ["--model", "shrinkage", "--b", "1e-200"], ["--dprime", "1e300", "--b", "1e-5"],
        ["--model", "shrinkage", "--dprime", "1e300", "--b", "1e-5"],
    ], ids=["flat-tiny-b", "flat-huge-b", "flat-tiny-U", "flat-huge-U", "shrinkage-tiny-b",
            "flat-inf-quotient", "shrinkage-inf-quotient"])
    def test_overflowing_rate_is_named(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        assert _run(["contraction", "--n-grid", "10", *argv, "--out", str(out)]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "rate overflows a double at n = 10, r = 100" in err and "Traceback" not in err
        assert not out.exists()

    def test_flat_gamma_column_decreases(self, tmp_path):
        out = tmp_path / "run"
        assert _run(["contraction", "--model", "flat", "--n-grid", "10,100,1000",
                     "--r-rule", "pow:2", "--out", str(out)]) == EXIT_OK
        rows = _read_csv(out / "contraction_results.csv")
        gammas = [float(r["gamma_formula"]) for r in rows]
        assert gammas[0] > gammas[1] > gammas[2]
        assert rows[0]["model"] == "flat_replicated"

    def test_pair_check_adds_empirical_column(self, tmp_path):
        out = tmp_path / "run"
        assert _run(["contraction", "--model", "flat", "--n-grid", "20",
                     "--r-rule", "fixed:10000", "--check-pairs", "10", "--reps", "500",
                     "--seed", "4", "--out", str(out)]) == EXIT_OK
        rows = _read_csv(out / "contraction_results.csv")
        assert float(rows[0]["gamma_empirical"]) <= float(rows[0]["gamma_formula"])
        sidecar = json.loads((out / "contraction_results.json").read_text(encoding="utf-8"))
        assert sidecar["diagnostics"][0]["violations"] == 0

    def test_sidecar_times_every_cell(self, tmp_path):
        out = tmp_path / "run"
        assert _run(["contraction", "--n-grid", "10,20", "--check-pairs", "2", "--reps", "50",
                     "--cx", "50", "--out", str(out)]) == EXIT_OK
        sidecar = json.loads((out / "contraction_results.json").read_text(encoding="utf-8"))
        timed = [diag for diag in sidecar["diagnostics"] if "seconds" in diag]
        assert [(diag["n"], diag["r"]) for diag in timed] == [(10, 100), (20, 400)]
        assert all(set(diag) == {"n", "r", "seconds"} and diag["seconds"] >= 0.0 for diag in timed)

    @pytest.mark.parametrize("model", ["flat", "shrinkage"])
    @pytest.mark.parametrize("dprime", ["0", "1"])
    def test_two_groups(self, tmp_path, model, dprime):
        # n = 2 with spread group means leaves no noise outside the span of
        # (1, group means): the remainder is exactly 0, not a chi-square(0).
        out = tmp_path / "run"
        assert _run(["contraction", "--model", model, "--n-grid", "2", "--dprime", dprime,
                     "--check-pairs", "3", "--reps", "100", "--cx", "100",
                     "--bound-m", "0..2", "--out", str(out)]) == EXIT_OK
        row = _read_csv(out / "contraction_results.csv")[0]
        assert math.isfinite(float(row["gamma_empirical"]))

    def test_malformed_bound_span_fails_before_any_cell(self, tmp_path):
        # The rate is >= 1 at n = 10, so no cell draws a bound curve; the
        # span is still checked before any cell runs.
        out = tmp_path / "run"
        assert _run(["contraction", "--n-grid", "10", "--bound-m", "0..x",
                     "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("n_grid, code, checked", [("10,1000", EXIT_USAGE, []), ("10", EXIT_OK, [10])],
                             ids=["a-rate-below-1", "every-rate-at-least-1"])
    def test_missing_bound_constant_fails_before_any_pair_check(self, tmp_path, monkeypatch, capsys,
                                                               n_grid, code, checked):
        # The rate is >= 1 at n = 10 (no curve, no c(x) needed) and below 1
        # at n = 1000; the closed forms show the missing --cx before the
        # n = 10 cell's pair check runs.
        calls, check = [], cli.contraction_check
        monkeypatch.setattr(cli, "contraction_check", lambda *a, **k: calls.append(a[1]) or check(*a, **k))
        out = tmp_path / "run"
        assert _run(["contraction", "--n-grid", n_grid, "--check-pairs", "5", "--reps", "1000",
                     "--bound-m", "0..3", "--out", str(out)]) == code
        assert ("bound curve needs --cx" in capsys.readouterr().err) == (code == EXIT_USAGE)
        assert calls == checked
        assert out.exists() == (code == EXIT_OK)

    @pytest.mark.parametrize("flags, message", [
        (["--n-grid", "10,1000", "--check-pairs", "5", "--reps", "2000", "--cx", "1"],
         "argument --cx: must be 0 or >= 2, got 1"),
        (["--n-grid", "10,1000", "--check-pairs", "5", "--reps", "-5"], "argument --reps: must be >= 1, got -5"),
        (["--n-grid", "10", "--reps", "-5"], "argument --reps: must be >= 1, got -5"),
        (["--n-grid", "10,1000", "--check-pairs", "5", "--reps", "1000", "--bound-m=-2..1"],
         "argument --bound-m: must be >= 0, got -2"),
        # The rate is >= 1 at n = 10, so no curve would be drawn.
        (["--n-grid", "10", "--bound-m=-2..1"], "argument --bound-m: must be >= 0, got -2"),
    ], ids=["cx-1", "negative-reps", "negative-reps-no-pairs", "negative-bound-step",
            "negative-bound-step-no-curve"])
    def test_bad_count_is_usage_error_before_any_pair_check(self, tmp_path, monkeypatch, capsys, flags, message):
        calls = []
        monkeypatch.setattr(cli, "contraction_check", lambda *a, **k: calls.append(a[1]))
        out = tmp_path / "run"
        assert _run(["contraction", *flags, "--out", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_bound_curve_is_the_cells_rate_and_cx(self, tmp_path):
        # The rate is >= 1 at n = 10, which draws no curve, and below 1 at
        # n = 1000, whose curve takes that rate and that cell's c(x).
        out = tmp_path / "run"
        assert _run(["contraction", "--model", "flat", "--n-grid", "10,1000", "--cx", "2000",
                     "--bound-m", "0..5", "--out", str(out)]) == EXIT_OK
        gammas = {int(row["n"]): float(row["gamma_formula"]) for row in _read_csv(out / "contraction_results.csv")}
        sidecar = json.loads((out / "contraction_results.json").read_text(encoding="utf-8"))
        cxs = {diag["n"]: diag["c_x"] for diag in sidecar["diagnostics"] if "c_x" in diag}
        rows = _read_csv(out / "contraction_bounds.csv")
        assert gammas[10] >= 1.0 > gammas[1000]
        assert [(int(row["n"]), int(row["m"])) for row in rows] == [(1000, m) for m in range(6)]
        for row in rows:
            gamma, c_x, m = float(row["gamma"]), float(row["c_x"]), int(row["m"])
            assert gamma == gammas[1000] and c_x == cxs[1000]
            assert float(row["bound"]) == wasserstein_bound(c_x, gamma, m)

    @pytest.mark.parametrize("flag, value", [("--bound-gamma", "0.5"), ("--bound-c", "1")])
    def test_bound_rate_and_constant_are_not_options(self, tmp_path, capsys, flag, value):
        # A curve at any other rate or c(x) than its cell's bounds nothing.
        out = tmp_path / "run"
        assert _run(["contraction", "--n-grid", "1000", "--cx", "100", "--bound-m", "0..3",
                     flag, value, "--out", str(out)]) == EXIT_USAGE
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("w", "5"), ("z_rule", "fixed:3")])
    def test_shrinkage_flags_under_flat_are_usage_error_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                                        key, value):
        # Neither shapes a flat number, so its sidecar would record values no number read.
        calls = []
        monkeypatch.setattr(cli, "contraction_check", lambda *a, **k: calls.append("pairs"))
        monkeypatch.setattr(cli, "estimate_cx", lambda *a, **k: calls.append("cx"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        out = tmp_path / "run"
        for argv in (["--model", "flat", "--" + key.replace("_", "-"), value], ["--config", str(cfg)]):
            assert _run(["contraction", *argv, "--n-grid", "10", "--check-pairs", "2", "--reps", "50",
                         "--cx", "50", "--out", str(out)]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert "--w and --z-rule shape --model shrinkage only" in err and "Traceback" not in err
        assert calls == []
        assert not out.exists()
        # Their defaults, which a flat sidecar records, are accepted.
        assert _run(["contraction", "--n-grid", "10", "--w", "0", "--z-rule", "nr2", "--out", str(out)]) == EXIT_OK

    def test_shrinkage_needs_valid_precision(self, tmp_path):
        code = _run(["contraction", "--model", "shrinkage", "--n-grid", "10",
                     "--z-rule", "fixed:0", "--out", str(tmp_path)])
        assert code == EXIT_PRECONDITION

    def test_shrinkage_grid_runs(self, tmp_path):
        out = tmp_path / "run"
        assert _run(["contraction", "--model", "shrinkage", "--n-grid", "1000,2000",
                     "--r-rule", "pow:2", "--z-rule", "nr2", "--dprime", "n",
                     "--out", str(out)]) == EXIT_OK
        rows = _read_csv(out / "contraction_results.csv")
        assert all(float(r["gamma_formula"]) < 1.0 for r in rows)
        assert all(r["z"] != "" for r in rows)


class TestEcho:
    # Every result command writes its CSV and sidecar and echoes the same
    # records on stdout: the CSV's bytes, or the sidecar's records as JSON.
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv, name", [
        (["estimate-gap", "--n-grid", "50,60", "--l-scan", "1..2", "--N", "2000"], "gap"),
        (["oracle", "--rhos", "0.5", "--ls", "1,2", "--N", "2000", "--seed", "6"], "oracle"),
        (["contraction", "--model", "shrinkage", "--n-grid", "10,20", "--r-rule", "fixed:50",
          "--check-pairs", "2", "--reps", "50"], "contraction"),
    ], ids=["estimate-gap", "oracle", "contraction"])
    def test_echo_is_the_written_file(self, tmp_path, capsys, argv, name, fmt):
        out = tmp_path / "run"
        assert _run([*argv, "--format", fmt, "--out", str(out)]) == EXIT_OK
        echo = capsys.readouterr().out
        if fmt == "csv":
            assert echo.encode() == (out / f"{name}_results.csv").read_bytes()
        else:
            sidecar = _strict_json((out / f"{name}_results.json").read_text(encoding="utf-8"))
            assert _strict_json(echo) == sidecar["records"]


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_grid": "50", "l_scan": 3, "N": 2000, "seed": 1}),
                       encoding="utf-8")
        out = tmp_path / "run"
        assert _run(["estimate-gap", "--config", str(cfg), "--N", "1500",
                     "--out", str(out)]) == EXIT_OK
        sidecar = json.loads((out / "gap_results.json").read_text(encoding="utf-8"))
        assert sidecar["config"]["N"] == 1500
        assert sidecar["config"]["l_scan"] == [3]

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_option": 1}), encoding="utf-8")
        assert _run(["estimate-gap", "--config", str(cfg), "--l", "1",
                     "--out", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize("argv, result, sidecar", [
        (["simulate", "--n", "50", "--r", "2", "--seed", "3"], "dataset.csv", "dataset_summary.json"),
        (["estimate-gap", "--n-grid", "20", "--l-scan", "1..2", "--N", "2000", "--seed", "5"],
         "gap_results.csv", "gap_results.json"),
        (["oracle", "--rhos", "0.5", "--ls", "1,2", "--N", "2000", "--seed", "6"],
         "oracle_results.csv", "oracle_results.json"),
        (["contraction", "--n-grid", "10,1000", "--check-pairs", "2", "--reps", "50", "--cx", "50",
          "--bound-m", "0..3", "--seed", "8"], "contraction_results.csv", "contraction_results.json"),
    ])
    def test_rerun_from_sidecar_config(self, tmp_path, argv, result, sidecar):
        # Older sidecars also record options since removed, as null: null is
        # an option's default, and a removed option's default is to be
        # absent, so such a sidecar reruns to the same bytes.
        removed = {"contraction": {"bound_c": None, "bound_gamma": None}, "estimate-gap": {"l": None}}
        first = tmp_path / "first"
        assert _run(argv + ["--out", str(first)]) == EXIT_OK
        assert (first / result).exists()
        config = json.loads((first / sidecar).read_text(encoding="utf-8"))["config"]
        for name, keys in (("again", config), ("old", {**config, **removed.get(argv[0], {})})):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(keys), encoding="utf-8")
            assert _run([argv[0], "--config", str(cfg), "--out", str(tmp_path / name)]) == EXIT_OK
            assert sorted(path.name for path in (tmp_path / name).glob("*.csv")) == sorted(
                path.name for path in first.glob("*.csv"))
            for path in first.glob("*.csv"):
                assert (tmp_path / name / path.name).read_bytes() == path.read_bytes(), (name, path.name)

    def test_a_removed_option_with_a_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_grid": [1000], "cx": 100, "bound_m": [0, 1], "bound_gamma": 0.5}),
                       encoding="utf-8")
        out = tmp_path / "run"
        assert _run(["contraction", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "unknown config keys: ['bound_gamma']" in capsys.readouterr().err
        assert not out.exists()

    def test_an_oracle_sidecar_with_the_removed_proposal_sd_reruns(self, tmp_path, capsys):
        # Older oracle sidecars record --proposal-sd; null (its default) reruns
        # to the same bytes, and a number is a usage error.
        first = tmp_path / "first"
        assert _run(["oracle", "--rhos", "0.5", "--ls", "1,2", "--N", "2000", "--seed", "6",
                     "--out", str(first)]) == EXIT_OK
        config = json.loads((first / "oracle_results.json").read_text(encoding="utf-8"))["config"]
        for name, sd, code in (("old", None, EXIT_OK), ("set", 2.0, EXIT_USAGE)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({**config, "proposal_sd": sd}), encoding="utf-8")
            assert _run(["oracle", "--config", str(cfg), "--out", str(tmp_path / name)]) == code
        assert "unknown config keys: ['proposal_sd']" in capsys.readouterr().err
        assert not (tmp_path / "set").exists()
        for file in ("oracle_results.csv", "oracle_report.csv"):
            assert (tmp_path / "old" / file).read_bytes() == (first / file).read_bytes()

    @pytest.mark.parametrize("config", [{"command": "oracle", "N": 2000}, ["command"]])
    def test_config_for_another_command_or_not_an_object_is_usage_error(self, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert _run(["estimate-gap", "--config", str(cfg), "--l", "1",
                     "--out", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize("key, value", [
        ("N", {"k": 1}), ("N", [[1]]), ("seed", True), ("n_grid", [50, None]), ("out", {"x": 1}),
    ])
    def test_config_value_of_wrong_json_type_is_usage_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_grid": "50", "l_scan": 1, "N": 1000, key: value}), encoding="utf-8")
        assert _run(["estimate-gap", "--config", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_USAGE
        assert f"config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, flag", [
        ("N", "many", "--N"), ("N", [1, 2], "--N"), ("seed", 2.5, "--seed"), ("A", "big", "--A"),
        ("format", "xml", "--format"), ("preset", "x", "--preset"), ("model", "x", "--model"),
        ("workers", 0, "--workers"), ("check_pairs", -1, "--check-pairs"),
        ("reps", 0, "--reps"), ("cx", 1, "--cx"),
    ])
    def test_config_value_failing_its_type_is_usage_error_like_the_flag(self, tmp_path, capsys, key, value, flag):
        # --model, --check-pairs, --reps and --cx are contraction's options;
        # the other keys are estimate-gap's.
        if key in ("model", "check_pairs", "reps", "cx"):
            command, config, flags = "contraction", {"n_grid": "10"}, ["--n-grid", "10"]
        else:
            command, config, flags = "estimate-gap", {"n_grid": "50", "l_scan": 1, "N": 1000}, ["--n-grid", "50", "--l", "1"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**config, key: value}), encoding="utf-8")
        assert _run([command, "--config", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_USAGE
        from_config = capsys.readouterr().err
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        assert _run([command, *flags, flag, text, "--out", str(tmp_path / "run")]) == EXIT_USAGE
        assert capsys.readouterr().err == from_config

    def test_every_option_is_named_by_its_flag(self):
        # A config key is read as the flag spelled from it, so each option's
        # dest must be its long flag without dashes, `-` turned into `_`.
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        for command, parser in subparsers.choices.items():
            for action in parser._actions:
                flag = max(action.option_strings, key=len)
                assert action.dest == flag.lstrip("-").replace("-", "_"), (command, flag)

    def test_config_lists_are_comma_lists_and_null_is_the_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_grid": [50, 60], "l_scan": [1, 2], "N": 2000, "seed": None}),
                       encoding="utf-8")
        assert _run(["estimate-gap", "--config", str(cfg), "--out", str(tmp_path / "cfg")]) == EXIT_OK
        assert _run(["estimate-gap", "--n-grid", "50,60", "--l-scan", "1,2", "--N", "2000",
                     "--out", str(tmp_path / "flags")]) == EXIT_OK
        assert ((tmp_path / "cfg" / "gap_results.csv").read_bytes()
                == (tmp_path / "flags" / "gap_results.csv").read_bytes())

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}", b'{"N": ' + b"[" * 100000 + b"]" * 100000 + b"}",
    ], ids=["not-utf8", "nested-too-deep"])
    def test_undecodable_or_too_deep_config_is_usage_error(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert _run(["estimate-gap", "--config", str(cfg), "--l", "1",
                     "--out", str(tmp_path / "run")]) == EXIT_USAGE
        assert "cannot read config" in capsys.readouterr().err

    def test_missing_config_is_usage_error(self, tmp_path):
        assert _run(["estimate-gap", "--config", str(tmp_path / "nope.json"),
                     "--l", "1", "--out", str(tmp_path)]) == EXIT_USAGE


class TestOptionTypes:
    # Each option's text is parsed once, by its flag's type: malformed text
    # exits 1 before any work, from a flag or a config value alike.
    @pytest.mark.parametrize("command, flags, key, value, message", [
        ("estimate-gap", ["--l", "2", "--N", "2000"], "n_grid", "10,abc", "argument --n-grid: invalid int list"),
        ("estimate-gap", ["--l", "2", "--N", "2000"], "n_grid", "", "argument --n-grid: no value in ''"),
        ("estimate-gap", ["--n-grid", "20", "--N", "2000"], "l_scan", "5..2", "argument --l-scan/--l: no value in '5..2'"),
        ("oracle", ["--ls", "1", "--N", "2000"], "rhos", "0.5,x", "argument --rhos: invalid float list"),
        ("oracle", ["--rhos", "0.5", "--N", "2000"], "ls", "0", "argument --ls: must be >= 1, got 0"),
        ("contraction", ["--check-pairs", "2", "--reps", "50"], "n_grid", "", "argument --n-grid: no value in ''"),
        ("contraction", ["--n-grid", "2,10", "--check-pairs", "2", "--reps", "50"], "dprime", "abc",
         "argument --dprime: 'abc' is not n or a finite number"),
        ("contraction", ["--n-grid", "2,10", "--check-pairs", "2", "--reps", "50"], "r_rule", "bogus",
         "argument --r-rule: 'bogus' is not fixed:K"),
        ("contraction", ["--n-grid", "2,10", "--check-pairs", "2", "--reps", "50"], "r_rule", "pow:inf",
         "argument --r-rule: 'pow:inf' is not"),
        ("contraction", ["--n-grid", "2,10", "--check-pairs", "2", "--reps", "50"], "r_rule", "pow:nan",
         "argument --r-rule: 'pow:nan' is not"),
        # r = K replicates; K < 1 once passed the flag and exited 2 at the data.
        ("contraction", ["--n-grid", "2,10", "--check-pairs", "2", "--reps", "50"], "r_rule", "fixed:0",
         "argument --r-rule: 'fixed:0' is not fixed:K (K an integer >= 1)"),
        ("contraction", ["--n-grid", "2,10", "--check-pairs", "2", "--reps", "50"], "r_rule", "fixed:-3",
         "argument --r-rule: 'fixed:-3' is not fixed:K (K an integer >= 1)"),
        # r = 2**400 fits a double, so the n = 2 cell's pair check would run
        # if the closed forms did not all come first; under nr2, z = (n r)**2
        # overflows before r does.
        ("contraction", ["--n-grid", "2,10", "--check-pairs", "2", "--reps", "50"], "r_rule", "pow:400",
         "--r-rule pow:400: r or z overflows at n = 10"),
        ("contraction", ["--model", "shrinkage", "--n-grid", "2,10", "--check-pairs", "2", "--reps", "50"],
         "r_rule", "pow:200", "--r-rule pow:200: r or z overflows at n = 10"),
        # Every float flag takes a finite number, and --U (V = 1/U) a positive one.
        ("contraction", ["--n-grid", "10"], "U", "0", "argument --U: invalid positive finite float value: '0'"),
        ("contraction", ["--n-grid", "10", "--check-pairs", "2", "--reps", "100"], "ybar", "nan",
         "argument --ybar: invalid finite float value: 'nan'"),
        ("contraction", ["--n-grid", "10", "--model", "shrinkage"], "w", "inf",
         "argument --w: invalid finite float value: 'inf'"),
        ("estimate-gap", ["--n-grid", "100", "--l", "2", "--N", "2000"], "A", "inf",
         "argument --A: invalid finite float value: 'inf'"),
        ("oracle", ["--ls", "1", "--N", "2000"], "rhos", "0.5,nan", "argument --rhos: invalid float list"),
    ], ids=["n-grid-not-int", "n-grid-empty", "l-scan-empty-span", "rhos-not-float", "ls-zero",
            "contraction-n-grid-empty", "dprime-not-number", "r-rule-unknown", "r-rule-pow-inf",
            "r-rule-pow-nan", "r-rule-fixed-zero", "r-rule-fixed-negative", "r-overflows", "z-overflows",
            "U-zero", "ybar-nan", "w-inf", "A-inf", "rhos-nan"])
    def test_malformed_text_is_usage_error_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                           command, flags, key, value, message):
        calls = []
        for owner, name in ((cli, "estimate_scan"), (spectral_estimator, "estimate_scan"),
                            (cli, "contraction_check")):
            monkeypatch.setattr(owner, name, lambda *a, name=name, **k: calls.append(name))
        flag = "--" + key.replace("_", "-")
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        errs = []
        for argv in ([command, *flags, flag, value], [command, *flags, "--config", str(cfg)]):
            assert _run([*argv, "--out", str(out)]) == EXIT_USAGE
            errs.append(capsys.readouterr().err)
        assert message in errs[0] and flag in errs[0] and "Traceback" not in errs[0]
        assert errs[1] == errs[0]
        assert calls == []
        assert not out.exists()

    # A repeated value once drew its own stream and wrote a second row with
    # the same run_id (four rows called gap-n100-l2 for --n-grid 100,100
    # --l-scan 2,2), of which a reader keyed by run_id kept one.
    @pytest.mark.parametrize("command, key, value, message", [
        ("estimate-gap", "n_grid", [100, 100], "argument --n-grid: repeats 100"),
        ("estimate-gap", "l_scan", [2, 3, 2], "argument --l-scan/--l: repeats 2"),
        ("oracle", "rhos", [0.5, "0.50"], "argument --rhos: repeats 0.5"),
        ("oracle", "ls", [1, 2, 1], "argument --ls: repeats 1"),
        ("contraction", "n_grid", [10, 100, 10], "argument --n-grid: repeats 10"),
        ("contraction", "bound_m", [0, 3, 0], "argument --bound-m: repeats 0"),
    ], ids=["gap-n-grid", "l-scan", "rhos-after-the-cast", "ls", "contraction-n-grid", "bound-m"])
    def test_a_repeated_list_value_is_usage_error(self, tmp_path, capsys, command, key, value, message):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        flag = "--" + key.replace("_", "-")
        for argv in ([command, flag, ",".join(map(str, value))], [command, "--config", str(cfg)]):
            assert _run([*argv, "--out", str(out)]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_no_option_takes_a_bare_float(self):
        # A bare float accepts nan and inf; every float flag takes a finite-number type instead.
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        bare = [f"{name} {action.option_strings[0]}" for name, parser in sub.choices.items()
                for action in parser._actions if action.type is float]
        assert bare == []

    @pytest.mark.parametrize("argv", [
        ["simulate"], ["estimate-gap"], ["oracle"], ["contraction"],
        # The shapes of the benchmark's commands.
        ["simulate", "--n", "1000000", "--seed", "1"],
        ["estimate-gap", "--n-grid", "100,1000,10000", "--l-scan", "2..10", "--N", "100000", "--workers", "1",
         "--seed", "1"],
        ["estimate-gap", "--data", "data/dataset.csv", "--l", "2", "--N", "1000000", "--workers", "1",
         "--seed", "1"],
        ["oracle", "--rhos", "0.25,0.5,0.9", "--ls", "1,2,5", "--N", "100000", "--workers", "1", "--seed", "1"],
        ["contraction", "--model", "flat", "--r-rule", "pow:2", "--n-grid", "10,100,1000", "--check-pairs", "2",
         "--reps", "10000", "--workers", "1", "--seed", "1", "--cx", "10000", "--bound-m", "0..10"],
        ["contraction", "--model", "shrinkage", "--r-rule", "fixed:10000", "--n-grid", "10,100,1000",
         "--check-pairs", "2", "--reps", "10000", "--workers", "1", "--seed", "1"],
        ["contraction", "--z-rule", "fixed:2.5", "--dprime", "n", "--bound-m", "3,1,2"],
    ])
    def test_recorded_options_parse_back_to_themselves(self, tmp_path, argv):
        # A sidecar records the parsed options as JSON; read back as a config
        # file they must give the same options, so a rerun is the same run.
        parser = build_parser()
        opts = cli._options(parser.parse_args(argv))
        recorded = json.loads(data_io.json_text(opts))
        assert recorded == opts
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(recorded), encoding="utf-8")
        again = parser.parse_args([argv[0], *cli._config_args(str(cfg), argv[0], opts)])
        assert cli._options(again) == opts


class TestDefaults:
    # Every option's default, written out: a sidecar's config must record
    # each one, so a run is reproducible from the sidecar alone.
    @pytest.mark.parametrize("argv, sidecar, defaults", [
        (["simulate", "--n", "10"], "dataset_summary.json", {
            "n": 1000, "r": 1, "preset": None, "A": 1.0, "V": 1.0,
            "seed": 0, "out": "runs",
        }),
        # A bare run is the desk sweep.
        (["estimate-gap"], "gap_results.json", {
            "n_grid": [100, 1000, 10000], "l_scan": [2, 3, 4, 5, 6, 7, 8, 9, 10], "N": 100000,
            "preset": None, "A": None, "V": None, "a": None, "b": None, "data": None,
            "seed": 0, "workers": 1, "out": "runs", "format": "csv",
        }),
        (["oracle", "--rhos", "0.5", "--ls", "1", "--N", "2000"], "oracle_results.json", {
            "rhos": "0.25,0.5,0.9", "ls": "1,2,5", "N": 100000,
            "seed": 0, "workers": 1, "out": "runs", "format": "csv",
        }),
        (["contraction"], "contraction_results.json", {
            "model": "flat", "n_grid": [10, 100, 1000], "r_rule": "pow:2", "z_rule": "nr2",
            "a": 1.0, "b": 1.0, "U": 1.0, "w": 0.0, "dprime": "0", "ybar": 0.0,
            "check_pairs": 0, "reps": 10000, "cx": 0, "bound_m": None,
            "seed": 0, "workers": 1, "out": "runs", "format": "csv",
        }),
    ])
    def test_sidecar_records_every_default(self, tmp_path, monkeypatch, argv, sidecar, defaults):
        monkeypatch.chdir(tmp_path)
        assert _run(argv) == EXIT_OK
        config = json.loads((tmp_path / "runs" / sidecar).read_text(encoding="utf-8"))["config"]
        assert set(config) == {"command", *defaults}
        assert config["command"] == argv[0]
        passed = {flag.lstrip("-").replace("-", "_"): value
                  for flag, value in zip(argv[1::2], argv[2::2])}
        for key, default in defaults.items():
            if key not in passed:
                assert config[key] == default, key
                assert type(config[key]) is type(default), key


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert _run([]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert _run(["oracle", "--frobnicate", "1", "--out", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize("case", ["missing-data", "directory-data", "out-is-a-file", "out-under-a-file"])
    def test_a_bad_path_is_one_line_usage_error(self, tmp_path, capsys, case):
        # Each once ended in an OSError traceback; `oracle --out` only after all its Monte Carlo.
        afile = tmp_path / "afile"
        afile.write_text("1.0\n", encoding="utf-8")
        gap = ["estimate-gap", "--l", "2", "--N", "2000", "--out", str(tmp_path / "run"), "--data"]
        oracle = ["oracle", "--rhos", "0.5", "--ls", "1", "--N", "2000", "--out"]
        argv, path, code = {
            "missing-data": (gap, tmp_path / "missing.csv", errno.ENOENT),
            "directory-data": (gap, tmp_path, errno.EISDIR),
            "out-is-a-file": (oracle, afile, errno.EEXIST),
            "out-under-a-file": (oracle, afile / "run", errno.ENOTDIR),
        }[case]
        assert _run([*argv, str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"gibbsgap: {os.strerror(code)}: {path}\n"
        assert captured.out == ""
        assert not (tmp_path / "run").exists()
        if case.endswith("data"):  # the library still raises
            with pytest.raises(OSError):
                read_dataset(path)

    def test_json_echo(self, tmp_path, capsys):
        assert _run(["contraction", "--n-grid", "10", "--format", "json",
                     "--out", str(tmp_path / "r")]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["model"] == "flat_replicated"
        assert payload[0]["gamma_formula"] == pytest.approx(
            math.sqrt(10 / (2 * 100) + 11.0 / 10.0)
        )
