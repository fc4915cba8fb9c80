import csv
import functools
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from gibbsgap import data_io
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
from gibbsgap.model_core import summarize


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("r", [1, 3])
    def test_blocked_noise_is_the_full_size_draw(self, r):
        # n is not a multiple of the 65 536-row blocks the noise is drawn in.
        cfg = SimConfig(n=3 * (1 << 16) + 5, r=r, A_true=2.0, V_true=0.5, seed=6)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        theta = rng.normal(0.0, math.sqrt(cfg.A_true), cfg.n)
        noise = rng.normal(0.0, math.sqrt(cfg.V_true), cfg.n if r == 1 else (cfg.n, r))
        y = simulate(cfg, return_raw=True)[1]
        assert y.shape == noise.shape
        assert np.array_equal(y, (theta if r == 1 else theta[:, None]) + noise)

    @pytest.mark.parametrize("r", [1, 3])
    def test_raw_data_and_group_means_are_read_only(self, r):
        d, y = simulate(SimConfig(n=100, r=r, A_true=1.0, V_true=1.0, seed=2), return_raw=True)
        assert not y.flags.writeable and not d.group_means.flags.writeable
        assert np.shares_memory(y, d.group_means) == (r == 1)

    def test_prefixes_of_the_raw_data_are_summarized_in_place(self):
        # estimate-gap's nested design: each size is a prefix of one draw.
        y = simulate(SimConfig(n=1000, r=1, A_true=1.0, V_true=1.0, seed=3), return_raw=True)[1]
        for n in (10, 100, 1000):
            assert np.shares_memory(summarize(y[:n]).group_means, y)


class TestSyntheticSummary:
    @pytest.mark.parametrize("n", [2, 3, 10, 11])
    @pytest.mark.parametrize("dp", [0.0, 1.0, 7.5])
    def test_spread_is_exact(self, n, dp):
        d = synthetic_summary(n, 2, delta_prime=dp, y_bar=0.3)
        assert float(np.sum((d.group_means - 0.3) ** 2)) == pytest.approx(dp, abs=1e-12)
        assert d.group_means.mean() == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 10, 1001])
    @pytest.mark.parametrize("dp", [0.0, 1.5, "n"])
    @pytest.mark.parametrize("y_bar", [0.0, 0.3, -2.0])
    def test_group_means_are_the_list_formula_bit_for_bit(self, n, dp, y_bar):
        # The +-1 pattern once built by a list comprehension, with a
        # separate np.full path at dp = 0; y_bar + 0 e gives the same values.
        dp = float(n) if dp == "n" else dp
        e = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
        e -= e.mean()
        expected = y_bar + math.sqrt(dp / float(np.sum(e * e))) * e
        assert synthetic_summary(n, 1, delta_prime=dp, y_bar=y_bar).group_means.tobytes() == expected.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_summary(1, 1)
        with pytest.raises(ValueError):
            synthetic_summary(5, 1, delta_prime=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["y_bar", "delta_prime"])
    def test_non_finite_location_or_spread_is_rejected(self, key, bad):
        with pytest.raises(ValueError, match="must be finite"):
            synthetic_summary(5, 2, **{key: bad})


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

    def test_one_column_text_is_one_repr_per_line(self, tmp_path):
        # Across a 65 536-row block boundary, with values whose repr needs
        # all 17 digits or an exponent.
        y = np.random.default_rng(5).standard_normal(70_000) * np.logspace(-320, 300, 70_000)
        p = tmp_path / "y.csv"
        write_dataset(p, y)
        lines = p.read_text(encoding="utf-8").split("\n")
        assert lines == [f"{v!r}" for v in y.tolist()] + [""]

    def test_extreme_values_round_trip(self, tmp_path):
        # The largest double is read back from a constant file: beside other
        # values its squared deviation overflows and the data is rejected.
        p = tmp_path / "y.csv"
        for y in (np.array([5e-324, 2.2250738585072014e-308, -0.1]),
                  np.full(3, 1.7976931348623157e308)):
            write_dataset(p, y)
            assert np.array_equal(read_dataset(p).group_means, y)
        write_dataset(p, np.array([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.1]))
        with pytest.raises(ValueError, match="overflows a double"):
            read_dataset(p)

    def test_group_means_are_read_only(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("1.5\n2\n-3\n", encoding="utf-8")
        assert not read_dataset(p).group_means.flags.writeable


class TestIngestMemory:
    """simulate and read_dataset hold about one copy of the data: no
    full-size temporary and no copy of their own array."""

    N = (1 << 20) + 5

    def test_simulate_and_read_back_peak_near_one_copy(self, tmp_path):
        cfg = SimConfig(n=self.N, r=1, A_true=1.0, V_true=1.0, seed=8)
        (d, y), peak = _traced_peak(simulate, cfg, True)
        assert peak < 1.25 * y.nbytes
        p = tmp_path / "y.csv"
        write_dataset(p, y)
        back, peak = _traced_peak(read_dataset, p)
        assert peak < 1.25 * y.nbytes
        assert (back.y_bar, back.delta) == (d.y_bar, d.delta)


def _summary_fields(d):
    return (d.n, d.r, d.y_bar, d.delta, d.delta_prime, d.group_means.tolist())


class TestReadPaths:
    # numpy's C reader takes the whole file in one call; the files it
    # rejects are read again line by line.
    VALUES = [[0.1, -2.5, 3.0], [1e-300, 4.25, -0.0], [7.0, 1.5e30, 2.0]]

    def _read(self, p, text, monkeypatch):
        p.write_bytes(text.encode("utf-8"))
        calls, read_lines = [], data_io._read_lines
        monkeypatch.setattr(data_io, "_read_lines", lambda path: calls.append(path) or read_lines(path))
        return _summary_fields(read_dataset(p)), bool(calls)

    @pytest.mark.parametrize("r", [1, 3])
    def test_one_pass_and_line_reader_give_the_same_summary(self, tmp_path, monkeypatch, r):
        rows = [row[:r] for row in self.VALUES]
        plain = "".join(",".join(map(repr, row)) + "\n" for row in rows)
        messy = "\r\n".join(["", " \t"] + [",".join(f'"{v!r}"' for v in row) for row in rows] + ["  ", ""])
        fast, fell_back = self._read(tmp_path / "plain.csv", plain, monkeypatch)
        assert not fell_back
        slow, fell_back = self._read(tmp_path / "messy.csv", messy, monkeypatch)
        assert fell_back
        assert slow == fast
        assert fast == _summary_fields(summarize(np.array(rows)))

    @pytest.mark.parametrize("text", ["\n\n\n", "\r\n\r\n"])
    def test_blank_lines_only_are_an_empty_dataset_with_warnings_as_errors(self, tmp_path, text):
        p = tmp_path / "blank.csv"
        p.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty dataset"):
                read_dataset(p)


@functools.lru_cache(maxsize=1)
def _dataset_and_text(n, r):
    """n rows of r values whose reprs need all 17 digits or an exponent, and
    the file text: each row's reprs comma-joined on one line."""
    y = np.random.default_rng(n + r).standard_normal((n, r)) * np.logspace(-300, 300, n)[:, None]
    text = "".join(",".join(map(repr, row)) + "\n" for row in y.tolist())
    return (y[:, 0] if r == 1 else y), text.encode()


class TestWriteDataset:
    BLOCK = 1 << 16
    PIECE = 1 << 13

    # At most three usable CPUs: each one past the first is a forked child.
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("n", [PIECE - 1, PIECE, PIECE + 1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1])
    def test_bytes_are_the_repr_join_for_any_cpu_count(self, tmp_path, monkeypatch, cpus, r, n):
        monkeypatch.setattr(data_io, "_usable_cpus", lambda: cpus)
        y, text = _dataset_and_text(n, r)
        p = tmp_path / "y.csv"
        assert write_dataset(p, y) == min(cpus, -(-n // self.BLOCK))
        assert p.read_bytes() == text

    # The rows are formatted one 8 192-row piece at a time: 65 536-row
    # pieces held ~6.8 MB of strings at this size.
    def test_formatting_holds_one_piece(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data_io, "_usable_cpus", lambda: 1)
        y = np.random.default_rng(5).standard_normal(200_000)
        processes, peak = _traced_peak(write_dataset, tmp_path / "y.csv", y)
        assert processes == 1
        assert peak < 2 << 20

    @pytest.mark.parametrize("where", ["worker", "parent"])
    def test_a_failed_writer_leaves_no_child_unreaped(self, tmp_path, monkeypatch, where):
        monkeypatch.setattr(data_io, "_usable_cpus", lambda: 3)
        if where == "worker":
            monkeypatch.setattr(data_io, "_block_bytes", _failing_block_bytes)
        else:
            real_open = data_io.Path.open
            monkeypatch.setattr(data_io.Path, "open", lambda path, mode: _FullFile(real_open(path, mode)))
        p = tmp_path / "y.csv"
        with pytest.raises(RuntimeError, match=f"{where} failed"):
            write_dataset(p, np.arange(8 * self.BLOCK, dtype=float))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    # A scheduler's timeout or timeout(1) signals the writer alone; its
    # workers must end with it.  Each sleeps in its first block, so the
    # signal lands while the file is being written.
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux's /proc and prctl")
    def test_a_killed_simulate_leaves_no_worker(self, tmp_path):
        src = str(Path(data_io.__file__).resolve().parents[1])
        code = ("import sys, time; sys.path.insert(0, sys.argv[1]); from gibbsgap import cli, data_io\n"
                "def slow(block): time.sleep(60)\n"
                "data_io._usable_cpus = lambda: 2; data_io._block_bytes = slow\n"
                "cli.main(['simulate', '--n', str(4 << 16), '--out', sys.argv[2]])")
        proc = subprocess.Popen([sys.executable, "-c", code, src, str(tmp_path / "run")])
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
                workers = _children(proc.pid)
            assert len(workers) == 2
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == -signal.SIGTERM
            deadline = time.monotonic() + 10
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [w for w in workers if _running(w)] == []
        finally:
            proc.kill()
            for w in filter(_running, workers):
                os.kill(w, signal.SIGKILL)


def _failing_block_bytes(block, block_bytes=data_io._block_bytes):
    """A block formatter that fails past the first block.  It is module
    level, so the pool's workers find it by name."""
    if block[0] > 0:
        raise RuntimeError("worker failed")
    return block_bytes(block)


def _stat(pid):
    """The fields of /proc/<pid>/stat after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()
    except OSError:
        return None


def _children(pid):
    return [int(p) for p in os.listdir("/proc") if p.isdigit() and (_stat(p) or [0, 0])[1] == str(pid)]


def _running(pid):
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


class _FullFile:
    """An output file that takes one block, then fails while the pool's
    workers still format the rest."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def writelines(self, lines):
        self.fh.write(next(iter(lines)))
        raise RuntimeError("parent failed")


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
