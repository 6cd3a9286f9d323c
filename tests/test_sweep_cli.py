"""Sweep orchestration and the command-line front end."""

import csv
import itertools
import math
import re
import time
import types
from pathlib import Path

import numpy as np
import pytest

from peierls import cli, numerics, sweep, thermodynamic
from peierls.cli import (MAX_GRID_POINTS, UsageError, _build_parser, _parse_range, main,
                         parse_config)
from peierls.finite_chain import ModelParams, theta_critical_finite
from peierls.numerics import ConvergenceError
from peierls.sweep import SWEEP_KINDS, ResultRow, SweepSpec, emit_csv, run_sweep


class TestParseConfig:
    def test_range_expansion(self, tmp_path):
        spec = parse_config(["phase-diagram", "--mu", "0.5:8:0.5",
                             "--out", str(tmp_path / "pd.csv")])
        assert spec.kind == "phase-diagram"
        assert len(spec.grid) == 16
        assert spec.grid[0] == (0.5,) and spec.grid[-1] == (8.0,)

    def test_largest_range(self):
        assert len(_parse_range(f"1:{MAX_GRID_POINTS}:1")) == MAX_GRID_POINTS
        with pytest.raises(UsageError):
            _parse_range(f"1:{MAX_GRID_POINTS + 1}:1")

    def test_comma_list(self, tmp_path):
        spec = parse_config(["gap", "--mu", "3,4,5,6", "--out", str(tmp_path / "g.csv")])
        assert [p[0] for p in spec.grid] == [3.0, 4.0, 5.0, 6.0]

    def test_odd_length_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            parse_config(["finite-thetac", "--mu", "1", "--L", "7",
                          "--out", str(tmp_path / "x.csv")])

    def test_mu_critical_residue_check(self, tmp_path):
        with pytest.raises(UsageError):
            parse_config(["mu-critical", "--L", "8", "--out", str(tmp_path / "x.csv")])

    def test_unknown_flag(self, tmp_path, capsys):
        with pytest.raises(UsageError):
            parse_config(["gap", "--mu", "2", "--frobnicate", "1"])
        # each command takes only the flags it reads; past the first, each
        # argv gives a command one flag of another command
        out = tmp_path / "x.csv"
        for argv in (["gap", "--mu", "2", "--frobnicate", "1"],
                     ["phase-diagram", "--mu", "2", "--theta", "0.1"],
                     ["phase-diagram", "--mu", "2", "--L", "8"],
                     ["bifurcation", "--mu", "2", "--theta", "0.1", "--L", "8"],
                     ["gap", "--mu", "2", "--theta", "0.1"],
                     ["gap", "--mu", "2", "--L", "8"],
                     ["finite-thetac", "--mu", "2", "--L", "8", "--theta", "0.1"],
                     ["mu-critical", "--L", "6", "--mu", "2"],
                     ["mu-critical", "--L", "6", "--theta", "nan"],
                     ["solve", "--mu", "2", "--theta", "0.1", "--workers", "1"],
                     ["constants", "--mu", "2"],
                     ["constants", "--theta", "0.1"],
                     ["constants", "--L", "8"],
                     ["constants", "--workers", "1"]):
            assert main([*argv, "--out", str(out)]) == 1, argv
            assert "unrecognized arguments" in capsys.readouterr().err
            assert not out.exists()
        with pytest.raises(SystemExit) as exc:
            main(["gap", "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"--[A-Za-z]+", capsys.readouterr().out))
        assert flags == {"--help", "--mu", "--out", "--workers", "--config"}

    def test_malformed_number(self, tmp_path):
        with pytest.raises(UsageError):
            parse_config(["gap", "--mu", "two", "--out", str(tmp_path / "x.csv")])

    def test_missing_out(self):
        with pytest.raises(UsageError):
            parse_config(["phase-diagram", "--mu", "2"])

    def test_no_tolerance_flags(self, tmp_path):
        # sweeps run at the library's fixed accuracy
        with pytest.raises(UsageError):
            parse_config(["phase-diagram", "--mu", "2", "--abs-tol", "1e-8",
                          "--out", str(tmp_path / "pd.csv")])

    def test_config_file_defaults_and_override(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("mu=1,2\nworkers=2\nout=" + str(tmp_path / "a.csv") + "\n")
        spec = parse_config(["phase-diagram", "--config", str(cfg)])
        assert len(spec.grid) == 2 and spec.workers == 2
        spec = parse_config(["phase-diagram", "--config", str(cfg), "--mu", "3"])
        assert spec.grid == [(3.0,)]

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        for line in ("muu=1\n", "abs_tol=1e-8\n"):
            cfg.write_text(line)
            with pytest.raises(UsageError, match="unknown config key"):
                parse_config(["phase-diagram", "--mu", "2", "--config", str(cfg),
                              "--out", str(tmp_path / "x.csv")])

    def test_config_keys_are_the_flags(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        argv = ["bifurcation", "--mu", "2", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]
        cfg.write_text("theta=0.1\n")
        assert parse_config(argv).grid == [(2.0, 0.1)]
        # bifurcation reads no L: the key is rejected, as the flag is
        cfg.write_text("theta=0.1\nL=8\n")
        with pytest.raises(UsageError, match="unknown config key 'L'"):
            parse_config(argv)

    def test_bifurcation_grid_is_mu_major(self, tmp_path):
        spec = parse_config(["bifurcation", "--mu", "1,2", "--theta", "0.1,0.2",
                             "--out", str(tmp_path / "x.csv")])
        assert spec.grid == [(1.0, 0.1), (1.0, 0.2), (2.0, 0.1), (2.0, 0.2)]


class TestSweepSpec:
    def test_domain_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(kind="phase-diagram", grid=[(-1.0,)], output_path="x.csv")
        with pytest.raises(ValueError):
            SweepSpec(kind="nonsense", grid=[(1.0,)], output_path="x.csv")
        with pytest.raises(ValueError):
            SweepSpec(kind="gap", grid=[], output_path="x.csv")

    @pytest.mark.parametrize("kind, grid, message", [
        ("bifurcation", [(2.0, 0.1), (2.0,)], "bifurcation expects parameters ('mu', 'theta'), "
                                              "got (2.0,)"),
        ("bifurcation", [(1.0, 0.1), (-1.0, 0.1), (-2.0, 0.1)], "mu must be positive, got -1.0"),
        ("bifurcation", [(1.0, 0.1), (1.0, 0.0)], "theta must be positive, got 0.0"),
        ("finite-thetac", [(1.0, 8), (1.0, 7)], "L must be an even integer >= 4, got 7"),
        ("finite-thetac", [(1.0, 8), (1.0, 8.5)], "L must be an even integer >= 4, got 8.5"),
        ("mu-critical", [(6,), (8,)], "mu-critical needs L = 2 mod 4, got 8"),
        ("mu-critical", [(6,), (10,), (3,), (4,)], "L must be an even integer >= 4, got 3"),
        ("finite-thetac", [(1.0, 8), (1.0, 2)], "L must be an even integer >= 4, got 2"),
        ("phase-diagram", [(1.0,), (math.nan,), (-1.0,)], "mu must be positive, got nan")])
    def test_domain_messages(self, kind, grid, message):
        # the first bad value of a column, in grid order, is reported
        with pytest.raises(ValueError) as err:
            SweepSpec(kind=kind, grid=grid, output_path="x.csv")
        assert str(err.value) == message

    @pytest.mark.parametrize("workers", [2.5, 2.0, True, False, 0, "2"])
    def test_workers_a_whole_number(self, workers):
        # a float or a bool compares fine with 1 but fails in the pool's constructor
        with pytest.raises(ValueError) as err:
            SweepSpec(kind="gap", grid=[(2.0,)], output_path="x.csv", workers=workers)
        assert str(err.value) == f"workers must be an integer >= 1, got {workers!r}"

    def test_numpy_workers_accepted(self):
        assert SweepSpec(kind="gap", grid=[(2.0,)], output_path="x.csv",
                         workers=np.int64(2)).workers == 2


class InlinePool:
    """A stand-in pool: records its size and maps in-process, so no worker
    process is started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


def _pool_due_at(monkeypatch, point):
    # the sweep's clock reads 0 at its start and i at point i (it is read at
    # every point while more than one worker could run), so the pool is due
    # at that point
    ticks = itertools.chain([0], itertools.count())
    monkeypatch.setattr(sweep, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    monkeypatch.setattr(sweep, "_POOL_AFTER_S", point)


class TestRunSweep:
    def test_phase_diagram_point(self, tmp_path):
        spec = SweepSpec(kind="phase-diagram", grid=[(2.0,)],
                         output_path=str(tmp_path / "pd.csv"))
        rows = run_sweep(spec)
        assert len(rows) == 1 and rows[0].status == "ok"
        assert rows[0].outputs["theta_c"] == pytest.approx(0.210440067907, abs=1e-8)

    def test_mu_critical_sweep(self, tmp_path):
        spec = SweepSpec(kind="mu-critical", grid=[(6,), (10,), (14,)],
                         output_path=str(tmp_path / "mc.csv"))
        rows = run_sweep(spec)
        vals = [r.outputs["mu_c"] for r in rows]
        assert vals[0] == pytest.approx(1 / 3, abs=1e-12)
        assert vals[0] < vals[1] < vals[2]

    def test_bifurcation_shape(self, tmp_path):
        theta_c = 0.210440067907
        thetas = [0.19, 0.2, 0.205, 0.215, 0.22]
        spec = SweepSpec(kind="bifurcation", grid=[(2.0, t) for t in thetas],
                         output_path=str(tmp_path / "bif.csv"))
        rows = run_sweep(spec)
        deltas = [r.outputs["delta"] for r in rows]
        assert deltas[0] > deltas[1] > deltas[2] > 0
        assert deltas[3] == 0.0 and deltas[4] == 0.0

    def test_finite_thetac_absent_branch(self, tmp_path):
        spec = SweepSpec(kind="finite-thetac", grid=[(1.0, 8), (1.0, 6)],
                         output_path=str(tmp_path / "ft.csv"))
        rows = run_sweep(spec)
        assert rows[0].outputs["theta_c"] > 0
        assert rows[1].outputs["theta_c"] == 0.0
        assert rows[1].outputs["W_star"] == ""
        assert rows[1].status == "ok"

    def test_failure_becomes_error_row(self, tmp_path):
        spec = SweepSpec(kind="phase-diagram", grid=[(2.0,), (801.0,)],
                         output_path=str(tmp_path / "pd.csv"))
        rows = run_sweep(spec)
        assert rows[0].status == "ok"
        assert rows[1].status.startswith("error:")
        assert rows[1].outputs["theta_c"] == ""

    def test_arithmetic_error_becomes_error_row(self, monkeypatch, tmp_path):
        # a point whose arithmetic fails, as the critical point's once did
        # at mu = 1e-300, is an error row beside the others, not an abort
        real = thermodynamic.theta_critical_thermo
        monkeypatch.setattr(thermodynamic, "theta_critical_thermo",
                            lambda mu: real(mu) if mu > 1 else mu / 0.0)
        spec = SweepSpec(kind="phase-diagram", grid=[(0.5,), (2.0,)],
                         output_path=str(tmp_path / "pd.csv"))
        rows = run_sweep(spec)
        assert rows[0].status == "error: float division by zero"
        assert rows[0].outputs["theta_c"] == ""
        assert rows[1].status == "ok"

    def test_worker_counts_agree_byte_for_byte(self, monkeypatch, tmp_path):
        # two points in-process, then the other four through a real 2-worker
        # fork pool: the CSV is the one-worker CSV
        mapped = []

        class CountedPool(sweep.ProcessPoolExecutor):
            def map(self, fn, tasks, chunksize=1):
                mapped.append(len(tasks))
                return super().map(fn, tasks, chunksize=chunksize)

        grid = [(m, L) for m in (0.5, 1.0, 1.5) for L in (8, 12)]
        serial = SweepSpec(kind="finite-thetac", grid=grid, output_path=str(tmp_path / "w1.csv"))
        emit_csv(run_sweep(serial), serial.output_path)
        _pool_due_at(monkeypatch, 2)
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", CountedPool)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        pooled = SweepSpec(kind="finite-thetac", grid=grid, workers=2,
                           output_path=str(tmp_path / "w2.csv"))
        emit_csv(run_sweep(pooled), pooled.output_path)
        assert mapped == [4]
        assert Path(pooled.output_path).read_bytes() == Path(serial.output_path).read_bytes()

    def test_pool_sized_by_what_can_run(self, monkeypatch):
        # the pool is due before the first point, so the whole grid reaches it
        monkeypatch.setattr(sweep, "_POOL_AFTER_S", 0)
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", InlinePool)
        sizes = InlinePool.sizes
        grid = [(L,) for L in range(6, 38, 4)]
        want = run_sweep(SweepSpec(kind="mu-critical", grid=grid, output_path="m.csv"))
        for cpus, workers, points, size in ((4, 5000, 1, None), (4, 5000, 3, 3),
                                            (4, 5000, 8, 4), (4, 2, 8, 2), (None, 5000, 8, None)):
            sizes.clear()
            monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
            spec = SweepSpec(kind="mu-critical", grid=grid[:points], output_path="m.csv",
                             workers=workers)
            assert run_sweep(spec) == want[:points]
            assert sizes == ([] if size is None else [size])

    def test_cheap_grid_starts_no_pool(self, monkeypatch):
        # a grid done within _POOL_AFTER_S never constructs an executor
        def no_pool(**kwargs):
            raise AssertionError("a cheap grid started a pool")

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 4)
        grid = [(m,) for m in (3.0, 4.0, 5.0, 6.0)]
        rows = run_sweep(SweepSpec(kind="gap", grid=grid, output_path="g.csv", workers=2))
        assert [r.status for r in rows] == ["ok"] * 4
        assert rows == run_sweep(SweepSpec(kind="gap", grid=grid, output_path="g.csv"))

    def test_pool_sized_by_the_points_left(self, monkeypatch):
        # the pool is due at the third point: 3 of the 5 points are left
        grid = [(L,) for L in range(6, 26, 4)]
        want = run_sweep(SweepSpec(kind="mu-critical", grid=grid, output_path="m.csv"))
        _pool_due_at(monkeypatch, 2)
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 8)
        InlinePool.sizes.clear()
        spec = SweepSpec(kind="mu-critical", grid=grid, output_path="m.csv", workers=5000)
        assert run_sweep(spec) == want
        assert InlinePool.sizes == [3]

    def test_rerun_identical(self, tmp_path):
        spec = SweepSpec(kind="mu-critical", grid=[(6,), (10,)],
                         output_path=str(tmp_path / "m.csv"))
        emit_csv(run_sweep(spec), spec.output_path)
        first = open(spec.output_path, "rb").read()
        emit_csv(run_sweep(spec), spec.output_path)
        assert open(spec.output_path, "rb").read() == first


class TestEmitCsv:
    def test_single_row_two_lines(self, tmp_path):
        path = str(tmp_path / "one.csv")
        emit_csv([ResultRow(inputs={"mu": 2.0},
                            outputs={"theta_c": 0.210440067907})], path)
        text = open(path, encoding="utf-8").read()
        assert text == "mu,theta_c,status\n2,0.210440067907,ok\n"

    def test_mixed_status_rows(self, tmp_path):
        path = str(tmp_path / "mix.csv")
        rows = [ResultRow(inputs={"mu": 1.0}, outputs={"gap": 0.05}),
                ResultRow(inputs={"mu": 2.0}, outputs={"gap": ""},
                          status="error: solver blew up")]
        emit_csv(rows, path)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines[1].endswith(",ok")
        assert "error: solver blew up" in lines[2]

    def test_twelve_significant_digits(self, tmp_path):
        path = str(tmp_path / "digits.csv")
        emit_csv([ResultRow(inputs={"mu": 1.0},
                            outputs={"v": 0.12345678901234567})], path)
        assert "0.123456789012" in open(path, encoding="utf-8").read()

    def test_inhomogeneous_rows_rejected(self, tmp_path):
        rows = [ResultRow(inputs={"mu": 1.0}, outputs={"a": 1.0}),
                ResultRow(inputs={"mu": 2.0}, outputs={"b": 1.0})]
        with pytest.raises(ValueError):
            emit_csv(rows, str(tmp_path / "x.csv"))


class TestCliMain:
    def test_constants_to_stdout(self, capsys):
        assert main(["constants"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("c1,c2,C,status\n")
        row = out.splitlines()[1].split(",")
        assert float(row[0]) == pytest.approx(0.8188, abs=5e-4)
        assert float(row[2]) == pytest.approx(0.61385, abs=5e-4)

    def test_solve_thermo_point(self, capsys):
        assert main(["solve", "--mu", "2", "--theta", "0.3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "mu,theta,W,delta,value,status"
        assert out.splitlines()[1].split(",")[3] == "0"

    def test_solve_finite_point(self, capsys):
        assert main(["solve", "--mu", "2", "--theta", "0.05", "--L", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "mu,theta,L,W,delta,value,status"
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["W"]) == pytest.approx(1.5966876965, abs=1e-5)
        assert float(row["delta"]) == pytest.approx(0.3193357284, abs=1e-5)

    def test_finite_thetac_row_is_the_library_value(self, tmp_path):
        out = tmp_path / "ft.csv"
        assert main(["finite-thetac", "--mu", "2", "--L", "64", "--out", str(out),
                     "--workers", "1"]) == 0
        cp = theta_critical_finite(2.0, 64)
        want = ",".join(["2", "64", *(f"{v:.12g}" for v in (cp.theta_c, cp.W_star, cp.x)),
                         "ok"])
        assert out.read_text(encoding="utf-8").splitlines()[1] == want

    def test_gap_rows_match_mpmath(self, tmp_path):
        # (f0, gap, delta_opt) from mpmath at 150 digits or more (see
        # GAP_REFERENCES in test_zero_temperature.py); every printed cell
        # must carry the reference's 12 digits
        refs = {12: (-1.3407870011686601, 6.7193885635197218e-10, 4.8321194577362843e-5),
                20: (-1.3137680181921, 2.2533688098552439e-15, 8.6774654484138596e-8),
                30: (-1.3002585270397861, 3.3281162791004839e-22, 3.3014140137111062e-11)}
        out = tmp_path / "gap.csv"
        assert main(["gap", "--mu", "12,20,30", "--out", str(out), "--workers", "1"]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "mu,W1,f0_per,f0,gap,delta_opt,status"
        for line, (mu, ref) in zip(lines[1:], refs.items()):
            W1, f0_per = 1 + 4 / (math.pi * mu), -4 / math.pi - 8 / (math.pi ** 2 * mu)
            assert line == ",".join([str(mu), *(f"{v:.12g}" for v in (W1, f0_per, *ref)),
                                     "ok"])

    def test_gap_past_domain_is_error_row(self, tmp_path):
        out = tmp_path / "gap.csv"
        assert main(["gap", "--mu", "250", "--out", str(out), "--workers", "1"]) == 3
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))[1:]
        assert rows[0][:6] == ["250", "", "", "", "", ""]
        assert rows[0][6].startswith("error: ") and "validated for" in rows[0][6]
        assert main(["gap", "--mu", "2,250", "--out", str(out), "--workers", "1"]) == 0
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))[1:]
        assert rows[0][6] == "ok" and rows[1][6].startswith("error: ")

    @pytest.mark.parametrize("kind, tiny, width", [("phase-diagram", "1e-300", 3),
                                                   ("phase-diagram", "1e-30", 3),
                                                   ("gap", "1e-160", 5)])
    def test_tiny_stiffness_is_error_row(self, tmp_path, kind, tiny, width):
        # below the validated mu = 1e-8 the critical point's x is lost to
        # rounding (wrong by 100 % at 1e-30, a division by zero at 1e-300)
        # and the zero-temperature W1 ~ 1/mu overflows when squared below
        # ~1e-154: each is an error row beside the valid mu = 2 row, never
        # an abort or an ok row
        out = tmp_path / f"{kind}.csv"
        assert main([kind, "--mu", f"{tiny},2", "--out", str(out), "--workers", "1"]) == 0
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))[1:]
        assert rows[0][:1 + width] == [tiny] + [""] * width
        assert rows[0][-1].startswith("error: ")
        assert rows[1][0] == "2" and rows[1][-1] == "ok"

    def test_argv_parsed_once(self, monkeypatch, tmp_path):
        calls = []
        parse_args = cli._Parser.parse_args

        def spy(self, *args, **kwargs):
            calls.append(args)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "parse_args", spy)
        for argv in (["mu-critical", "--L", "6", "--out", str(tmp_path / "m.csv"),
                      "--workers", "1"],
                     ["solve", "--mu", "2", "--theta", "0.3", "--out", str(tmp_path / "s.csv")],
                     ["constants", "--out", str(tmp_path / "c.csv")]):
            calls.clear()
            assert main(argv) == 0
            assert len(calls) == 1, argv

    def test_solve_failure_is_the_sweep_error_row(self, monkeypatch, capsys, tmp_path):
        def fail(params):
            raise ConvergenceError("budget exhausted")

        monkeypatch.setattr(thermodynamic, "minimize_dimer_thermo", fail)
        assert main(["solve", "--mu", "2", "--theta", "0.1"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["mu,theta,W,delta,value,status", "2,0.1,,,,error: budget exhausted"]
        out = tmp_path / "b.csv"
        assert main(["bifurcation", "--mu", "2", "--theta", "0.1", "--out", str(out),
                     "--workers", "1"]) == 3
        assert out.read_text(encoding="utf-8").splitlines() == lines

    def test_usage_error_exit_1(self, capsys):
        assert main(["finite-thetac", "--mu", "1", "--L", "7", "--out", "x.csv"]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--mu", "inf", "--theta", "0.1"],
                                      ["--mu", "nan", "--theta", "0.1"],
                                      ["--mu", "2", "--theta", "inf"],
                                      ["--mu", "2", "--theta", "0.1", "--L", "8.5"]])
    def test_solve_reads_numbers_as_sweeps_do(self, argv, capsys):
        assert main(["solve", *argv]) == 1
        assert "usage error:" in capsys.readouterr().err

    def test_solve_integral_float_length(self, capsys):
        assert main(["solve", "--mu", "2", "--theta", "0.05", "--L", "8.0"]) == 0
        as_float = capsys.readouterr().out
        assert main(["solve", "--mu", "2", "--theta", "0.05", "--L", "8"]) == 0
        assert as_float == capsys.readouterr().out
        assert as_float.splitlines()[1].startswith("2,0.05,8,")

    def test_exhausted_simplex_is_an_error_row(self, monkeypatch, tmp_path):
        # a dimer search whose simplex runs out of iterations raises, and
        # the sweep point becomes an error row
        monkeypatch.setattr(numerics, "_SIMPLEX_MAX_ITER", 3)
        with pytest.raises(ConvergenceError):
            thermodynamic.minimize_dimer_thermo(ModelParams(mu=2.0, theta=0.1))
        spec = SweepSpec(kind="bifurcation", grid=[(2.0, 0.1)],
                         output_path=str(tmp_path / "b.csv"))
        (row,) = run_sweep(spec)
        assert row.status == "error: simplex search did not converge in 3 iterations"
        assert row.outputs == {"W": "", "delta": "", "value": ""}

    def test_solve_odd_length_exit_1(self, capsys):
        assert main(["solve", "--mu", "1", "--theta", "0.1", "--L", "7"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_bifurcation_missing_theta_exit_1(self, capsys, tmp_path):
        assert main(["bifurcation", "--mu", "2", "--out", str(tmp_path / "b.csv")]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_backwards_range_exit_1(self, capsys, tmp_path):
        assert main(["gap", "--mu", "5:1:1", "--out", str(tmp_path / "g.csv")]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gap", "--mu", "1:inf:1"], ["gap", "--mu", "1:2:nan"], ["gap", "--mu=-inf:2:1"],
        ["mu-critical", "--L", "6:x:4"], ["mu-critical", "--L", "6.5:14:4"],
        ["mu-critical", "--L", "6:14:0.5"], ["mu-critical", "--L", "inf"]])
    def test_bad_range_part_exit_1(self, argv, capsys, tmp_path):
        # each part of a range passes the checks of a single value
        assert main([*argv, "--out", str(tmp_path / "x.csv"), "--workers", "1"]) == 1
        assert "usage error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gap", "--mu", "1:2:1e-20"],
        ["mu-critical", "--L", "6:10000002:4"], ["mu-critical", "--L=-1.7e308:1.7e308:4"],
        ["finite-thetac", "--mu", "1:2:0.0001", "--L", "4:2000:2"]])
    def test_huge_grid_exit_1(self, argv, capsys, tmp_path):
        # a range past a million points, or a product of ranges past it, is
        # refused before the grid is built
        t0 = time.perf_counter()
        assert main([*argv, "--out", str(tmp_path / "x.csv"), "--workers", "1"]) == 1
        assert time.perf_counter() - t0 < 1.0
        assert "more than 1000000 points" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_unwritable_path_exit_2(self, capsys, tmp_path):
        assert main(["mu-critical", "--L", "6",
                     "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 2
        assert "i/o error" in capsys.readouterr().err

    def test_all_points_failed_exit_3(self, tmp_path):
        assert main(["phase-diagram", "--mu", "801",
                     "--out", str(tmp_path / "pd.csv")]) == 3

    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert main(["mu-critical", "--L", "6,10", "--out", str(out),
                     "--workers", "1"]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "L,mu_c,status"
        assert lines[1].startswith("6,0.333333333333,")

    def test_help_lists_columns(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["phase-diagram", "--help"])
        assert exc.value.code == 0
        assert "mu,theta_c,W_star,x,status" in capsys.readouterr().out


# CSV text of the README's grids but the bifurcation one, as written at
# --workers 1 (sweeps) or to stdout (solve, constants), plus a slice of the
# bifurcation grid (the dimer search) and a phase diagram on mapped mode-mean
# nodes (mu >= 12, x > 1e4). The printed digits are the package's
# behaviour: a change to any of them is a change of result.
README_GRIDS = {
    "phase-diagram --mu 0.5:8:0.5": (
        "mu,theta_c,W_star,x,status\n"
        "0.5,1.60184110215,3.24338358614,2.02478484401,ok\n"
        "1,0.659788703402,2.22215337649,3.36797730096,ok\n"
        "1.5,0.355175784616,1.83523485258,5.1671170504,ok\n"
        "2,0.210440067907,1.63220047639,7.75612977425,ok\n"
        "2.5,0.130507492137,1.50771610096,11.5527168308,ok\n"
        "3,0.083007586179,1.42381821289,17.1528685321,ok\n"
        "3.5,0.053615393513,1.3635511211,25.4320826866,ok\n"
        "4,0.0349810017602,1.31821765163,37.6838165091,ok\n"
        "4.5,0.022982101694,1.28290477048,55.8219081771,ok\n"
        "5,0.0151746276559,1.25463258797,82.6796292089,ok\n"
        "5.5,0.010056911207,1.23149174972,122.452284242,ok\n"
        "6,0.00668423998191,1.21220393734,181.352545782,ok\n"
        "6.5,0.00445259461395,1.19588189017,268.580904811,ok\n"
        "7,0.00297134573754,1.18189089076,397.762830433,ok\n"
        "7.5,0.00198575875782,1.16976507145,589.077130764,ok\n"
        "8,0.00132868438854,1.1591548571,872.407975206,ok\n"
    ),
    "gap --mu 3,4,5,6": (
        "mu,W1,f0_per,f0,gap,delta_opt,status\n"
        "3,1.42441318158,-1.54342936778,-1.54463473824,0.00120537045733,0.073728453081,ok\n"
        "4,1.31830988618,-1.47588191202,-1.47611214368,0.000230231663735,0.0309118016756,ok\n"
        "5,1.25464790895,-1.43535343856,-1.43539890084,4.54622759178e-05,0.0133899871307,ok\n"
        "6,1.21220659079,-1.40833445626,-1.40834358283,9.12656943644e-06,0.00589585336166,ok\n"
    ),
    "finite-thetac --mu 2 --L 8,16,64": (
        "mu,L,theta_c,W_star,x,status\n"
        "2,8,0.320591933976,1.60293055621,4.99990918777,ok\n"
        "2,16,0.23676944705,1.62740623749,6.8733793898,ok\n"
        "2,64,0.210442357749,1.63220011432,7.75604365864,ok\n"
    ),
    "mu-critical --L 6,10,14": (
        "L,mu_c,status\n"
        "6,0.333333333333,ok\n"
        "10,0.694427191,ok\n"
        "14,0.918226210224,ok\n"
    ),
    "bifurcation --mu 2 --theta 0.15:0.25:0.02": (
        "mu,theta,W,delta,value,status\n"
        "2,0.15,1.6293430106,0.155911694191,-1.68719155296,ok\n"
        "2,0.17,1.63015158243,0.13382869089,-1.68850310033,ok\n"
        "2,0.19,1.6311011746,0.0995128625571,-1.69032227421,ok\n"
        "2,0.21,1.63217557197,0.0152263814134,-1.6927222113,ok\n"
        "2,0.23,1.63131746238,0,-1.69557779836,ok\n"
        "2,0.25,1.63032330459,0,-1.69870232209,ok\n"
    ),
    "phase-diagram --mu 12,20,50,200": (
        "mu,theta_c,W_star,x,status\n"
        "12,5.47897544321e-05,1.10610329529,20188.1411361,ok\n"
        "20,9.8390823206e-08,1.06366197724,10810581.1353,ok\n"
        "50,5.5494387088e-18,1.02546479089,1.84787118969e+17,ok\n"
        "200,3.73225301552e-69,1.00636619772,2.6964040046e+68,ok\n"
    ),
    "solve --mu 2 --theta 0.1": (
        "mu,theta,W,delta,value,status\n"
        "2,0.1,1.6280198572,0.183844790934,-1.6856099482,ok\n"
    ),
    "solve --mu 2 --theta 0.1 --L 8": (
        "mu,theta,L,W,delta,value,status\n"
        "2,0.1,8,1.59673336163,0.318249515297,-1.65147284833,ok\n"
    ),
    "constants": (
        "c1,c2,C,status\n"
        "0.818780140172,0.511927320732,0.613808260287,ok\n"
    ),
}


class TestReadmeGrids:
    @pytest.mark.parametrize("command", list(README_GRIDS))
    def test_output_is_unchanged(self, command, tmp_path, capsys):
        argv = command.split()
        if argv[0] in ("solve", "constants"):
            assert main(argv) == 0
            got = capsys.readouterr().out
        else:
            out = tmp_path / "grid.csv"
            assert main([*argv, "--out", str(out), "--workers", "1"]) == 0
            got = out.read_text(encoding="utf-8")
        assert got == README_GRIDS[command]


def _readme_commands() -> list[list[str]]:
    """argv of each example in README's "Command line" block, optional
    parts ([--L 8]) included."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [[tok.strip("[]") for tok in line.split()[1:]]
            for line in block.splitlines() if line.startswith("peierls ")]


class TestReadmeCommands:
    def test_every_example_parses(self):
        commands = _readme_commands()
        assert [argv[0] for argv in commands] == [*SWEEP_KINDS, "solve", "constants"]
        for argv in commands:
            assert _build_parser().parse_args(argv).kind == argv[0]
            if argv[0] in SWEEP_KINDS:
                assert parse_config(argv).output_path == argv[-1]
