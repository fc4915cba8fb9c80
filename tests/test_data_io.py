import csv
import json
import math
import warnings

import numpy as np
import pytest

from gibbsgap.data_io import (
    CSV_FIELDS,
    ResultRecord,
    SimConfig,
    read_dataset,
    simulate,
    synthetic_summary,
    write_dataset,
    write_results,
)


class TestSimulate:
    def test_variance_decomposition(self):
        cfg = SimConfig(n=100_000, r=1, A_true=2.0, V_true=1.0, seed=1)
        d, y = simulate(cfg, return_raw=True)
        total_var = cfg.A_true + cfg.V_true
        # y is normal with variance A+V, so Var(S^2) ~ 2*(A+V)^2/(n-1).
        se = math.sqrt(2.0 / (cfg.n - 1)) * total_var
        assert abs(y.var(ddof=1) - total_var) < 3 * se

    def test_seed_determinism(self):
        cfg = SimConfig(n=500, r=3, A_true=1.0, V_true=1.0, seed=9)
        d1, y1 = simulate(cfg, return_raw=True)
        d2, y2 = simulate(cfg, return_raw=True)
        assert np.array_equal(y1, y2)
        assert d1.y_bar == d2.y_bar and d1.delta == d2.delta

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            SimConfig(n=10, r=1, A_true=0.0, V_true=1.0, seed=0)
        with pytest.raises(ValueError):
            SimConfig(n=10, r=1, A_true=1.0, V_true=-2.0, seed=0)

    def test_replicated_shape_and_summary(self):
        cfg = SimConfig(n=50, r=4, A_true=1.0, V_true=0.5, seed=2)
        d, y = simulate(cfg, return_raw=True)
        assert y.shape == (50, 4)
        assert d.n == 50 and d.r == 4
        assert d.group_means == pytest.approx(y.mean(axis=1))


class TestSyntheticSummary:
    @pytest.mark.parametrize("n", [2, 3, 10, 11])
    @pytest.mark.parametrize("dp", [0.0, 1.0, 7.5])
    def test_spread_is_exact(self, n, dp):
        d = synthetic_summary(n, 2, delta_prime=dp, y_bar=0.3)
        assert float(np.sum((d.group_means - 0.3) ** 2)) == pytest.approx(dp, abs=1e-12)
        assert d.group_means.mean() == pytest.approx(0.3, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_summary(1, 1)
        with pytest.raises(ValueError):
            synthetic_summary(5, 1, delta_prime=-1.0)


class TestReadDataset:
    def test_simple_file(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("1\n2\n3\n", encoding="utf-8")
        d = read_dataset(p)
        assert d.n == 3 and d.r == 1
        assert d.y_bar == pytest.approx(2.0)
        assert d.delta == pytest.approx(2.0)

    def test_replicated_file(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("0,0\n2,2\n", encoding="utf-8")
        d = read_dataset(p)
        assert d.n == 2 and d.r == 2
        assert d.y_bar == pytest.approx(1.0)
        assert d.delta_prime == pytest.approx(2.0)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        for text in ("", "\n \t\n"):
            p.write_text(text, encoding="utf-8")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="empty dataset"):
                    read_dataset(p)

    def test_single_row_rejected(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("1.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="at least 2"):
            read_dataset(p)

    def test_parse_error_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1\nnot-a-number\n3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            read_dataset(p)

    def test_ragged_matrix_names_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1,2\n3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            read_dataset(p)

    @pytest.mark.parametrize("text", ["1\n\n  \nx\n5\n", "1,2\n\n \t\n3\n5,6\n"])
    def test_errors_after_blank_lines_name_the_file_line(self, tmp_path, text):
        p = tmp_path / "bad.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_dataset(p)
        assert str(info.value).startswith(f"{p}: line 4: ")
        assert "row" not in str(info.value)

    def test_quoted_cell_parses(self, tmp_path):
        p = tmp_path / "quoted.csv"
        p.write_text('"1.5"\n2\n', encoding="utf-8")
        assert read_dataset(p).y_bar == 1.75

    @pytest.mark.parametrize("r", [1, 3])
    def test_written_dataset_reads_back_exactly(self, tmp_path, r):
        d, y = simulate(SimConfig(n=70_000, r=r, A_true=1.0, V_true=1.0, seed=4), return_raw=True)
        p = tmp_path / "sub" / "y.csv"
        write_dataset(p, y)
        assert len(p.read_text(encoding="utf-8").splitlines()) == 70_000
        back = read_dataset(p)
        assert (back.n, back.r, back.y_bar, back.delta) == (d.n, d.r, d.y_bar, d.delta)
        assert np.array_equal(back.group_means, d.group_means)

    def test_extreme_values_round_trip(self, tmp_path):
        y = np.array([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.1])
        p = tmp_path / "y.csv"
        write_dataset(p, y)
        with np.errstate(over="ignore"):
            back = read_dataset(p)
        assert np.array_equal(back.group_means, y)


class TestWriteResults:
    def _records(self):
        return [
            ResultRecord(
                run_id="r0", model="simple", n=100, r=1, a=2.0, b=1.0, V=1.0,
                l=4, N=1000, seed=7, s_hat=1.0 / 3.0, s_se=1.23456789012345e-05,
                u_hat=0.5773502691896258, u_se=1e-300, status="ok",
            ),
            ResultRecord(run_id="r1", model="flat_replicated", n=10, r=100,
                         gamma_formula=math.sqrt(6.5), status=None),
        ]

    def test_header_is_exact(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results(self._records(), path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == (
            "run_id,model,n,r,a,b,V,w,z,l,N,seed,s_hat,s_se,u_hat,u_se,"
            "gamma_formula,gamma_empirical,status"
        )

    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "results.csv"
        records = self._records()
        write_results(records, path)
        with path.open(encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        # shortest round-trip serialization: parsing back is bit-exact, which
        # is stronger than the 15-significant-digit floor.
        assert float(rows[0]["s_hat"]) == records[0].s_hat
        assert float(rows[0]["u_hat"]) == records[0].u_hat
        assert float(rows[0]["s_se"]) == records[0].s_se
        assert float(rows[0]["u_se"]) == records[0].u_se
        assert float(rows[1]["gamma_formula"]) == records[1].gamma_formula
        assert int(rows[0]["N"]) == records[0].N

    def test_missing_fields_are_empty(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results(self._records(), path)
        with path.open(encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[1]["s_hat"] == ""
        assert rows[1]["w"] == ""
        assert rows[1]["status"] == ""
        assert rows[0]["status"] == "ok"

    def test_sidecar_mirrors_fields(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results(
            self._records(), path, config={"command": "test"}, timing_seconds=0.5,
            diagnostics=[{"k": 1}],
        )
        sidecar = json.loads((path.with_suffix(".json")).read_text(encoding="utf-8"))
        assert sidecar["config"] == {"command": "test"}
        assert sidecar["timing_seconds"] == 0.5
        assert sidecar["diagnostics"] == [{"k": 1}]
        assert sidecar["records"][0]["run_id"] == "r0"
        assert set(sidecar["records"][0]) == set(CSV_FIELDS)

    def test_byte_identical_across_writes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results(self._records(), p1)
        write_results(self._records(), p2)
        assert p1.read_bytes() == p2.read_bytes()
