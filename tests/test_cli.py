import csv
import json
import math

import pytest

from gibbsgap.cli import (
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    EXIT_VALIDATION,
    PRESETS,
    main,
)
from gibbsgap.data_io import read_dataset


def _run(argv):
    return main(argv)


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
        assert meta["config"]["b"] == 10.0

    @pytest.mark.parametrize("flag", [["--workers", "8"], ["--format", "json"]])
    def test_rejects_flags_it_does_not_read(self, tmp_path, flag):
        assert _run(["simulate", "--n", "10", "--out", str(tmp_path), *flag]) == EXIT_USAGE

    def test_replicated_dataset_round_trips(self, tmp_path):
        out = tmp_path / "sim"
        assert _run(["simulate", "--n", "4", "--r", "3", "--seed", "2", "--out", str(out)]) == EXIT_OK
        rows = (out / "dataset.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 4 and all(len(row.split(",")) == 3 for row in rows)
        meta = json.loads((out / "dataset_summary.json").read_text(encoding="utf-8"))
        assert "workers" not in meta["config"] and "format" not in meta["config"]

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

    def test_worker_count_is_invisible_in_output(self, tmp_path):
        outs = []
        for workers in ("1", "8"):
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

    def test_l_and_scan_are_exclusive(self, tmp_path):
        assert _run(["estimate-gap", "--n-grid", "50", "--N", "100",
                     "--out", str(tmp_path)]) == EXIT_USAGE
        assert _run(["estimate-gap", "--n-grid", "50", "--l", "1", "--l-scan", "1..2",
                     "--N", "100", "--out", str(tmp_path)]) == EXIT_USAGE

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

    def test_overflowing_variance_is_flagged(self, tmp_path):
        # A near-zero prior scale makes the weights' variance overflow.
        out = tmp_path / "run"
        assert _run(["estimate-gap", "--n-grid", "100", "--l", "2", "--N", "20000",
                     "--b", "1e-300", "--out", str(out)]) == EXIT_OK
        row = _read_csv(out / "gap_results.csv")[0]
        assert row["s_se"] == "inf"
        assert math.isfinite(float(row["s_hat"]))
        assert row["status"] == "infinite_se"

    def test_csv_echo_is_the_written_file(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert _run(["estimate-gap", "--n-grid", "50,60", "--l-scan", "1..2", "--N", "2000",
                     "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.encode() == (out / "gap_results.csv").read_bytes()

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

    def test_biased_proposal_fails_validation(self, tmp_path):
        # A proposal far too narrow never sees the weight mass: the estimate
        # is badly low with a tiny SE, so validation must fail.
        code = _run(["oracle", "--rhos", "0.9", "--ls", "1", "--N", "5000",
                     "--proposal-sd", "0.05", "--seed", "2", "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION


class TestContraction:
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

    def test_bound_curve_hand_value(self, tmp_path):
        out = tmp_path / "run"
        assert _run(["contraction", "--model", "flat", "--n-grid", "10",
                     "--bound-m", "0..3", "--bound-c", "1.0", "--bound-gamma", "0.5",
                     "--out", str(out)]) == EXIT_OK
        rows = _read_csv(out / "contraction_bounds.csv")
        by_m = {r["m"]: float(r["bound"]) for r in rows}
        assert by_m["3"] == pytest.approx(0.25)
        assert by_m["0"] == pytest.approx(2.0)

    def test_csv_echo_is_the_written_file(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert _run(["contraction", "--model", "shrinkage", "--n-grid", "10,20",
                     "--r-rule", "fixed:50", "--check-pairs", "2", "--reps", "50",
                     "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.encode() == (out / "contraction_results.csv").read_bytes()

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


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_grid": "50", "l": 3, "N": 2000, "seed": 1}),
                       encoding="utf-8")
        out = tmp_path / "run"
        assert _run(["estimate-gap", "--config", str(cfg), "--N", "1500",
                     "--out", str(out)]) == EXIT_OK
        sidecar = json.loads((out / "gap_results.json").read_text(encoding="utf-8"))
        assert sidecar["config"]["N"] == 1500
        assert sidecar["config"]["l"] == 3

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
        (["contraction", "--n-grid", "10", "--check-pairs", "2", "--reps", "50", "--cx", "50",
          "--bound-m", "0..3", "--seed", "8"], "contraction_results.csv", "contraction_results.json"),
    ])
    def test_rerun_from_sidecar_config(self, tmp_path, argv, result, sidecar):
        first, again = tmp_path / "first", tmp_path / "again"
        assert _run(argv + ["--out", str(first)]) == EXIT_OK
        cfg = tmp_path / "cfg.json"
        config = json.loads((first / sidecar).read_text(encoding="utf-8"))["config"]
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert _run([argv[0], "--config", str(cfg), "--out", str(again)]) == EXIT_OK
        assert (first / result).exists()
        for path in first.glob("*.csv"):
            assert (again / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("config", [{"command": "oracle", "N": 2000}, ["command"]])
    def test_config_for_another_command_or_not_an_object_is_usage_error(self, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert _run(["estimate-gap", "--config", str(cfg), "--l", "1",
                     "--out", str(tmp_path)]) == EXIT_USAGE

    def test_missing_config_is_usage_error(self, tmp_path):
        assert _run(["estimate-gap", "--config", str(tmp_path / "nope.json"),
                     "--l", "1", "--out", str(tmp_path)]) == EXIT_USAGE


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert _run([]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert _run(["oracle", "--frobnicate", "1", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_json_echo(self, tmp_path, capsys):
        assert _run(["contraction", "--n-grid", "10", "--format", "json",
                     "--out", str(tmp_path / "r")]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["model"] == "flat_replicated"
        assert payload[0]["gamma_formula"] == pytest.approx(
            math.sqrt(10 / (2 * 100) + 11.0 / 10.0)
        )
