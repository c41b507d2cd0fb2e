import contextlib
import functools
import io
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_libor import montecarlo
from affine_libor.cli import (RunConfig, _run_tasks, _strike_grid,
                              build_process, load_tenor_csv, main,
                              parse_config_text)
from affine_libor.errors import (InvalidParameter, NonMonotoneCurve,
                                 ParseError)

REPO = Path(__file__).resolve().parents[1]
TABLE1 = REPO / "data" / "zcb_euro_2002-02-19.csv"
CIR_CFG = REPO / "configs" / "cir.cfg"

FLAT_CSV = """maturity,discount
0.5,0.95
1.0,0.95
1.5,0.95
2.0,0.95
"""

CIR_CFG_TEMPLATE = """
process.family = cir
process.lambda = 0.001
process.theta = 0.5
process.eta = 0.59
process.x0 = 1.25
tenor.path = {tenor}
surface.strikes = 0.02:0.04:0.01
caplet.index = 2
caplet.strike = 0.03
swaption.start = 2
swaption.end = 4
swaption.strike = 0.03
mc.paths = 20000
mc.seed = 7
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadTenorCsv:
    def test_table1_file(self):
        tenor = load_tenor_csv(str(TABLE1))
        assert tenor.n_periods == 10
        assert tenor.delta == pytest.approx(0.5)
        assert tenor.bond(10) == 0.7920573

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "empty.csv", "")
        with pytest.raises(ParseError):
            load_tenor_csv(str(p))

    def test_increasing_discounts_rejected(self, tmp_path):
        p = write(tmp_path, "bad.csv",
                  "maturity,discount\n0.5,0.95\n1.0,0.97\n")
        with pytest.raises(NonMonotoneCurve):
            load_tenor_csv(str(p))

    def test_bad_row_reports_line(self, tmp_path):
        p = write(tmp_path, "bad.csv",
                  "maturity,discount\n0.5,0.95\n1.0,oops\n")
        with pytest.raises(ParseError, match="row 3"):
            load_tenor_csv(str(p))

    def test_non_uniform_spacing(self, tmp_path):
        p = write(tmp_path, "bad.csv",
                  "maturity,discount\n0.5,0.95\n1.0,0.94\n2.0,0.93\n")
        with pytest.raises(ParseError):
            load_tenor_csv(str(p))

    def test_delta_column_must_agree(self, tmp_path):
        good = write(tmp_path, "d.csv",
                     "maturity,discount,delta\n0.5,0.95,0.5\n1.0,0.94,0.5\n")
        assert load_tenor_csv(str(good)).delta == pytest.approx(0.5)
        bad = write(tmp_path, "dbad.csv",
                    "maturity,discount,delta\n0.5,0.95,0.25\n1.0,0.94,0.25\n")
        with pytest.raises(ParseError):
            load_tenor_csv(str(bad))


class TestConfig:
    def test_parse_config_text(self):
        cfg = parse_config_text("a.b = 1 # comment\n\n# full comment\nc=2\n")
        assert cfg == {"a.b": "1", "c": "2"}

    def test_parse_error(self):
        with pytest.raises(ParseError):
            parse_config_text("not a pair\n")

    def test_build_process_families(self):
        cir = build_process({"process.family": "cir", "process.lambda": "0.1",
                             "process.theta": "0.4", "process.eta": "0.2"})
        assert cir.lam == 0.1
        gou = build_process({"process.family": "gamma-ou",
                             "process.lambda": "0.01", "process.alpha": "2",
                             "process.beta": "1"})
        assert gou.alpha == 2.0
        with pytest.raises(InvalidParameter):
            build_process({"process.family": "vasicek"})


class TestCommands:
    def test_calibrate_flat_curve_writes_zero_us(self, tmp_path):
        tenor = write(tmp_path, "flat.csv", FLAT_CSV)
        cfg = write(tmp_path, "flat.cfg",
                    CIR_CFG_TEMPLATE.format(tenor=tenor))
        out = tmp_path / "us.txt"
        assert main(["calibrate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        values = [float(v) for v in out.read_text().split()]
        assert values == [0.0, 0.0, 0.0, 0.0]

    def test_calibrate_table1(self, tmp_path, capsys):
        out = tmp_path / "us.txt"
        assert main(["calibrate", "--config", str(CIR_CFG),
                     "--out", str(out)]) == 0
        us = np.array([float(v) for v in out.read_text().split()])
        assert us.size == 10 and us[-1] == 0.0
        assert np.all(np.diff(us) < 0.0)

    def test_caplet_and_swaption_methods_agree(self, tmp_path, capsys):
        for cmd in ("caplet", "swaption"):
            prices = {}
            for method in ("fourier", "closed"):
                assert main([cmd, "--config", str(CIR_CFG),
                             "--method", method]) == 0
                text = capsys.readouterr().out
                prices[method] = float(
                    [ln for ln in text.splitlines()
                     if ln.startswith("price =")][0].split("=")[1])
            assert prices["fourier"] == pytest.approx(prices["closed"],
                                                      rel=1e-6)

    def test_surface_cross_method_consistency(self, tmp_path):
        tenor = write(tmp_path, "t.csv", TABLE1.read_text())
        cfg = write(tmp_path, "c.cfg", CIR_CFG_TEMPLATE.format(tenor=tenor))
        out_c = tmp_path / "c.csv"
        out_f = tmp_path / "f.csv"
        assert main(["surface", "--config", str(cfg), "--method", "closed",
                     "--out", str(out_c)]) == 0
        assert main(["surface", "--config", str(cfg), "--method", "fourier",
                     "--out", str(out_f)]) == 0
        a = np.genfromtxt(out_c, delimiter=",", skip_header=1)
        b = np.genfromtxt(out_f, delimiter=",", skip_header=1)
        assert a.shape == (9 * 3, 4)
        assert np.max(np.abs(a[:, 2] - b[:, 2]) / a[:, 2]) < 1e-6

    def test_surface_header_and_order(self, tmp_path):
        tenor = write(tmp_path, "t.csv", TABLE1.read_text())
        cfg = write(tmp_path, "c.cfg", CIR_CFG_TEMPLATE.format(tenor=tenor))
        out = tmp_path / "s.csv"
        assert main(["surface", "--config", str(cfg), "--out", str(out),
                     "--method", "closed"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "expiry,strike,price,implied_vol"
        first = [float(v) for v in lines[1].split(",")]
        second = [float(v) for v in lines[2].split(",")]
        assert first[0] == second[0] and first[1] < second[1]

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        tenor = write(tmp_path, "t.csv", TABLE1.read_text())
        cfg = write(tmp_path, "c.cfg", CIR_CFG_TEMPLATE.format(tenor=tenor))
        outs = []
        for run in range(2):
            out = tmp_path / f"s{run}.csv"
            assert main(["surface", "--config", str(cfg), "--out", str(out),
                         "--method", "fourier"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_validate_reports_and_reruns_identically(self, tmp_path, capsys):
        tenor = write(tmp_path, "t.csv", TABLE1.read_text())
        cfg = write(tmp_path, "c.cfg", CIR_CFG_TEMPLATE.format(tenor=tenor))
        assert main(["validate", "--config", str(cfg), "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["validate", "--config", str(cfg), "--seed", "5"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "PASS calibration" in first
        assert "FAIL" not in first

    def test_validate_needs_two_paths(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg",
                    CIR_CFG_TEMPLATE.format(tenor=TABLE1) + "mc.paths = 1\n")
        assert main(["validate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: InvalidParameter")
        assert "PASS" not in captured.out

    def test_validate_deterministic_driver(self, tmp_path, capsys):
        # eta = 0 makes every path identical: the checks compare rounding
        # noise against a zero standard error and must still pass.
        text = CIR_CFG_TEMPLATE.format(tenor=TABLE1).replace(
            "process.eta = 0.59", "process.eta = 0")
        cfg = write(tmp_path, "c.cfg", text)
        assert main(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.endswith("42/42 checks passed\n")

    def test_validate_starts_paths_at_the_model_state(self, tmp_path,
                                                      capsys):
        # model.x0 moves the state every pricer starts from; the paths
        # must start there too, not at process.x0
        cfg = write(tmp_path, "c.cfg", CIR_CFG_TEMPLATE.format(tenor=TABLE1)
                    + "model.x0 = 2.0\n")
        assert main(["validate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.endswith("42/42 checks passed\n")

    # NaN and inf compare false against every bound, and used to pass the
    # driver's checks and end as InfeasibleCurve or ConvergenceFailure.
    @pytest.mark.parametrize("family, line", [
        ("cir", "process.lambda = nan"), ("cir", "process.eta = inf"),
        ("cir", "process.theta = nan"), ("cir", "process.x0 = nan"),
        ("gamma_ou", "process.lambda = nan"),
        ("gamma_ou", "process.beta = inf"),
        ("cir_2f", "process.eta1 = nan"), ("cir_2f", "process.x02 = inf")])
    def test_non_finite_driver_is_invalid_parameter(self, tmp_path, capsys,
                                                    family, line):
        key = line.split(" =")[0] + " ="
        lines = [line if text.startswith(key) else text for text in
                 (REPO / "configs" / f"{family}.cfg").read_text().splitlines()
                 if not text.startswith("tenor.path")]
        assert line in lines
        cfg = write(tmp_path, "c.cfg",
                    "\n".join(lines + [f"tenor.path = {TABLE1}"]) + "\n")
        assert main(["caplet", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: InvalidParameter")
        assert "price" not in captured.out

    # Tiny and huge etas once ended in tracebacks: a Poisson window whose
    # ratio a2 / (j + 1) rounds to one (ZeroDivisionError), eta^2 = 0 in
    # phi_psi (ZeroDivisionError) and eta^2 overflowing in domain_sup
    # (OverflowError).  At eta = 1e-155, whose square is subnormal, the
    # non-centrality overflowed to inf and the closed caplet printed
    # price = 0 with exit status 0.
    @pytest.mark.parametrize("family, command, lines, category", [
        ("cir", "caplet", ["process.eta = 1e-12"], "ConvergenceFailure"),
        ("cir", "caplet", ["process.eta = 1e-155"], "InvalidParameter"),
        ("cir_2f", "caplet", ["process.eta1 = 1e-300",
                              "process.lambda2 = 1e-300"],
         "InvalidParameter"),
        ("cir_2f", "calibrate", ["process.eta1 = 1e300",
                                 "process.lambda1 = 50"],
         "InvalidParameter")])
    def test_extreme_eta_ends_as_one_error_line(self, tmp_path, capsys,
                                                family, command, lines,
                                                category):
        keys = {line.split(" =")[0] + " =" for line in lines}
        cfg = write(tmp_path, "c.cfg", "\n".join(
            [text for text in
             (REPO / "configs" / f"{family}.cfg").read_text().splitlines()
             if not text.startswith(tuple(keys) + ("tenor.path",))]
            + lines + [f"tenor.path = {TABLE1}"]) + "\n")
        assert main([command, "--config", str(cfg), "--method", "closed",
                     "--out", str(tmp_path / "out.txt")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {category}: ")
        assert captured.err.count("\n") == 1
        assert "price" not in captured.out
        if category == "ConvergenceFailure":
            assert "alpha=" in captured.err

    # A loose quadrature tolerance leaves an error estimate above the
    # 1e-3 relative control; a factor started at 1e300 has a Poisson
    # non-centrality numpy cannot sample (a ValueError traceback before).
    @pytest.mark.parametrize("family, command, method, line, category", [
        ("cir", "caplet", "fourier", "quadrature.rel_tol = 0.01",
         "QuadratureFailure"),
        ("cir_2f", "validate", "fourier", "process.x02 = 1e300",
         "InvalidParameter")])
    def test_extreme_setting_ends_as_one_error_line(self, tmp_path, capsys,
                                                    family, command, method,
                                                    line, category):
        cfg = bundled_config(tmp_path, family, f"mc.paths = 4000\n{line}\n")
        assert main([command, "--config", str(cfg), "--method", method]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {category}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_unreachable_poisson_window_fails_every_closed_cell(
            self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", CIR_CFG_TEMPLATE.format(tenor=TABLE1)
                    .replace("process.eta = 0.59", "process.eta = 1e-12"))
        out = tmp_path / "s.csv"
        assert main(["surface", "--config", str(cfg), "--method", "closed",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out.endswith("27 cells, 27 failed\n")
        assert captured.err == \
            "error: ConvergenceFailure: 27 of 27 cells failed\n"
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 27 and all(r.endswith(",nan,nan") for r in rows)

    def test_error_category_on_bad_config(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg", "process.family = cir\n")
        assert main(["caplet", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")

    def test_error_category_on_bad_curve(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.csv",
                    "maturity,discount\n0.5,0.9\n1.0,0.95\n")
        cfg = write(tmp_path, "c.cfg", CIR_CFG_TEMPLATE.format(tenor=bad))
        assert main(["calibrate", "--config", str(cfg),
                     "--out", str(tmp_path / "u.txt")]) == 1
        assert "NonMonotoneCurve" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line", [
        ("surface", "surface.strikes = 0.01:0.06:0"),
        ("surface", "surface.strikes = 0.06:0.01:0.005"),
        ("caplet", "caplet.index = 40"),
        ("swaption", "swaption.end = 40"),
        ("caplet", "caplet.strike = nan"),
        ("swaption", "swaption.strike = nan"),
        ("caplet", "calibration.tol = nan"),
        ("caplet", "calibration.tol = -1"),
        ("caplet", "model.x0 = nan"),
        ("caplet", "model.x0 = 1.0,2.0"),
        # no quote may be printed under an unknown method's label
        ("caplet", "surface.method = bogus"),
        ("swaption", "surface.method = bogus"),
        # a negative seed, a strike count above 10 000 and a path count
        # above 10 000 000 are user errors, caught before any allocation
        ("validate", "mc.seed = -3"),
        ("surface", "surface.strikes = 0:1e308:1e-308"),
        ("surface", "surface.strikes = 0:1:1e-12"),
        ("validate", "mc.paths = 1000000000000"),
    ])
    def test_out_of_range_input_is_invalid_parameter(self, tmp_path, capsys,
                                                     command, line):
        cfg = write(tmp_path, "c.cfg",
                    CIR_CFG_TEMPLATE.format(tenor=TABLE1) + line + "\n")
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: InvalidParameter")

    def test_negative_seed_option_is_invalid_parameter(self, tmp_path,
                                                       capsys):
        cfg = write(tmp_path, "c.cfg", CIR_CFG_TEMPLATE.format(tenor=TABLE1))
        assert main(["validate", "--config", str(cfg), "--seed", "-3"]) == 1
        assert capsys.readouterr().err.startswith("error: InvalidParameter")

    # The T = 1.5 row of the Euro curve.  A NaN passes every comparison
    # of the curve checks, and an infinite discount must not read as an
    # increasing curve.
    @pytest.mark.parametrize("row", ["1.5,nan", "nan,0.9435826", "1.5,inf"])
    @pytest.mark.parametrize("command", ["calibrate", "caplet"])
    def test_non_finite_tenor_row_is_invalid_parameter(self, tmp_path, capsys,
                                                       row, command):
        lines = TABLE1.read_text().splitlines()
        assert lines[3] == "1.5,0.9435826"
        curve = write(tmp_path, "curve.csv",
                      "\n".join(lines[:3] + [row] + lines[4:]) + "\n")
        cfg = write(tmp_path, "c.cfg", CIR_CFG_TEMPLATE.format(tenor=curve))
        assert main([command, "--config", str(cfg), "--method", "closed",
                     "--out", str(tmp_path / "u.txt")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: InvalidParameter")
        assert captured.out == ""


    # A tolerance that is zero, negative or not finite used to price 0
    # with a zero error, or to end in a traceback.
    @pytest.mark.parametrize("line", [
        "quadrature.rel_tol = nan", "quadrature.rel_tol = 0",
        "quadrature.rel_tol = -1"])
    def test_bad_quadrature_setting_is_invalid_parameter(self, tmp_path,
                                                         capsys, line):
        cfg = write(tmp_path, "c.cfg",
                    CIR_CFG_TEMPLATE.format(tenor=TABLE1) + line + "\n")
        assert main(["caplet", "--config", str(cfg),
                     "--method", "fourier"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: InvalidParameter")
        assert "price" not in captured.out


class TestConfigErrors:
    """An unusable configuration ends as ParseError naming the path or the
    key at fault."""

    @staticmethod
    def parse_error(capsys, cfg) -> str:
        assert main(["caplet", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: ")
        return err

    def test_tenor_path_is_relative_to_the_config(self, tmp_path,
                                                  monkeypatch, capsys):
        # the curve lies in the working directory, not next to the config
        write(tmp_path, "curve.csv", TABLE1.read_text())
        sub = tmp_path / "configs"
        sub.mkdir()
        cfg = write(sub, "c.cfg", CIR_CFG_TEMPLATE.format(tenor="curve.csv"))
        monkeypatch.chdir(tmp_path)
        assert str(sub / "curve.csv") in self.parse_error(capsys, cfg)

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.cfg"
        assert str(missing) in self.parse_error(capsys, missing)

    def test_missing_required_key(self, tmp_path, capsys):
        text = CIR_CFG_TEMPLATE.format(tenor=TABLE1).replace(
            "process.eta = 0.59\n", "")
        cfg = write(tmp_path, "c.cfg", text)
        assert "process.eta" in self.parse_error(capsys, cfg)

    @pytest.mark.parametrize("line, bad", [
        ("process.lambda = 0.001", "process.lambda = fast"),
        ("mc.seed = 7", "mc.seed = seven"),
        ("caplet.index = 2", "caplet.index = 2.5"),
    ])
    def test_non_numeric_value(self, tmp_path, capsys, line, bad):
        text = CIR_CFG_TEMPLATE.format(tenor=TABLE1).replace(line, bad)
        cfg = write(tmp_path, "c.cfg", text)
        assert bad.split(" =")[0] in self.parse_error(capsys, cfg)

    # The contour and the head width are fixed; only quadrature.rel_tol is
    # read.  On configs/cir.cfg, a truncation of 1e300 used to print
    # price = 0 and quadrature_error = 0 with exit status 0.
    @pytest.mark.parametrize("line", [
        "quadrature.truncation = 1e300", "quadrature.damping = 3",
        "quadrature.truncation = 0", "quadrature.truncation = -5",
        "quadrature.truncation = nan", "quadrature.truncation = inf",
        "quadrature.damping = nan"])
    def test_unread_quadrature_key(self, tmp_path, capsys, line):
        text = CIR_CFG.read_text().replace(
            "../data/zcb_euro_2002-02-19.csv", str(TABLE1))
        cfg = write(tmp_path, "c.cfg", text + line + "\n")
        assert main(["caplet", "--config", str(cfg),
                     "--method", "fourier"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ParseError: ")
        assert line.split(" =")[0] in captured.err
        assert "price" not in captured.out


def bundled_config(tmp_path, family, extra=""):
    """configs/<family>.cfg with its tenor path made absolute, plus
    ``extra`` lines."""
    text = (REPO / "configs" / f"{family}.cfg").read_text().replace(
        "../data/zcb_euro_2002-02-19.csv", str(TABLE1))
    return write(tmp_path, f"{family}.cfg", text + extra)


def with_cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


class TestValidateTasks:
    """validate runs its five simulation groups on the usable cores; the
    output never depends on how many there are."""

    def validate(self, capsys, cfg, seed):
        before = threading.active_count()
        code = main(["validate", "--config", str(cfg), "--seed", str(seed)])
        assert threading.active_count() == before
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("family", ["cir", "gamma_ou", "cir_2f"])
    def test_golden_settings_for_any_core_count(self, tmp_path, monkeypatch,
                                                capsys, family):
        cfg = bundled_config(tmp_path, family, "mc.paths = 4000\n")
        golden = (REPO / "tests" / "data" / "golden"
                  / f"{family}.validate.out").read_text()
        for cores in (1, 2, 5):
            with_cores(monkeypatch, cores)
            assert self.validate(capsys, cfg, 3) == (0, golden, "")

    @pytest.mark.parametrize("family", ["cir", "gamma_ou", "cir_2f"])
    def test_bundled_paths_for_one_and_two_cores(self, tmp_path, monkeypatch,
                                                 capsys, family):
        # 100 000 paths (the bundled mc.paths), seed 1 of the benchmark's
        # validate seeds
        cfg = bundled_config(tmp_path, family)
        runs = []
        for cores in (1, 2):
            with_cores(monkeypatch, cores)
            runs.append(self.validate(capsys, cfg, 1))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][1].endswith(
            "42/42 checks passed\n")

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("index", [10, 11])
    def test_failing_task_ends_as_one_error_line(self, tmp_path, monkeypatch,
                                                 capsys, cores, index):
        # the caplet oracle runs concurrently with the martingale checks
        # and raises for an index at or past N = 10
        with_cores(monkeypatch, cores)
        cfg = bundled_config(tmp_path, "cir",
                             f"mc.paths = 4000\ncaplet.index = {index}\n")
        code, out, err = self.validate(capsys, cfg, 3)
        assert code == 1 and out == ""
        assert err.startswith("error: InvalidParameter: caplet index ")
        assert err.count("\n") == 1

    def test_wrapped_function_sees_the_tasks_in_order(self, tmp_path,
                                                      monkeypatch, capsys):
        # a tracer that wraps library functions may keep one call stack
        # for the process: while a wrapper is in place, every simulation
        # runs on the calling thread, whatever the cores
        threads = []
        original = montecarlo.simulate_process

        @functools.wraps(original)
        def traced(*args, **kwargs):
            threads.append(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "simulate_process", traced)
        with_cores(monkeypatch, 5)
        cfg = bundled_config(tmp_path, "cir", "mc.paths = 4000\n")
        golden = (REPO / "tests" / "data" / "golden"
                  / "cir.validate.out").read_text()
        assert self.validate(capsys, cfg, 3) == (0, golden, "")
        assert len(threads) == 5
        assert set(threads) == {threading.get_ident()}

    def test_worker_threads_follow_the_usable_cores(self, monkeypatch):
        # each task holds its thread for 50 ms, so every task submitted
        # while the pool is busy starts a new thread, up to the pool's
        # size: one per usable core, at most one per task; with one core
        # the calling thread runs them all
        def task():
            time.sleep(0.05)
            return threading.get_ident()

        caller = threading.get_ident()
        for cores, threads in ((1, 1), (2, 2), (3, 3), (16, 5)):
            with_cores(monkeypatch, cores)
            idents = set(_run_tasks([task] * 5))
            assert len(idents) == threads
            assert (caller in idents) == (cores == 1)

    def test_each_task_runs_once_under_contention(self, monkeypatch):
        # a pool of 16 threads on 200 tasks, switching threads as
        # often as the interpreter allows: a task handed out twice or
        # never shows in ``ran``
        with_cores(monkeypatch, 16)
        ran, returned = [], []
        tasks = [lambda i=i: ran.append(i) or i for i in range(200)]
        runner = threading.Thread(
            target=lambda: returned.append(_run_tasks(tasks)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert returned == [list(range(200))]
        assert sorted(ran) == list(range(200))

    def test_first_failure_in_order_is_raised(self, monkeypatch):
        # task 1 fails after task 2 has already failed: a run in order
        # would have stopped at task 1, so its exception is the one raised
        def slow_failure():
            time.sleep(0.05)
            raise ParseError("task 1")

        def fast_failure():
            raise InvalidParameter("task 2")

        for cores in (1, 3):
            with_cores(monkeypatch, cores)
            ran = []
            tasks = [lambda: ran.append(0), slow_failure, fast_failure,
                     lambda: ran.append(3)]
            with pytest.raises(ParseError, match="task 1"):
                _run_tasks(tasks)
            assert 0 in ran
            if cores == 1:  # in order, nothing runs after a failure
                assert ran == [0]


# Config fuzzing: extreme values in 1-3 keys of a bundled config.  Index
# keys draw indices at and past the ends of the 10-period tenor.
FUZZ_VALUES = ("0", "-1", "-1e300", "1e-300", "1e300", "nan", "inf", "-inf")
FUZZ_INDICES = ("-1", "0", "1", "9", "10", "11")
INDEX_KEYS = ("caplet.index", "swaption.start", "swaption.end")


def bundled_settings(family) -> dict:
    text = (REPO / "configs" / f"{family}.cfg").read_text()
    out = parse_config_text(text)
    out["tenor.path"] = str(TABLE1)
    out["mc.paths"] = "4000"
    return out


@st.composite
def fuzzed_runs(draw):
    family = draw(st.sampled_from(["cir", "gamma_ou", "cir_2f"]))
    cfg = bundled_settings(family)
    keys = draw(st.lists(st.sampled_from(sorted(set(cfg) - {"tenor.path"})),
                         min_size=1, max_size=3, unique=True))
    for key in keys:
        cfg[key] = draw(st.sampled_from(
            FUZZ_INDICES if key in INDEX_KEYS else FUZZ_VALUES))
    command = draw(st.sampled_from(
        ["calibrate", "caplet", "swaption", "surface", "validate"]))
    return cfg, command, draw(st.sampled_from(["fourier", "closed"]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestConfigFuzz:
    @settings(max_examples=500, deadline=5000, derandomize=True)
    @given(run=fuzzed_runs())
    def test_any_config_ends_in_a_result_or_one_error_line(self, fuzz_dir,
                                                           run):
        cfg, command, method = run
        path = write(fuzz_dir, "c.cfg", "".join(
            f"{key} = {value}\n" for key, value in cfg.items()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--method", method,
                         "--out", str(fuzz_dir / "out.txt")])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1)
        if code == 0:
            assert err == ""
            assert not re.search(r"\b(nan|inf)\b", out)
        elif command == "validate" and err == "":
            # a check that fails is reported, not raised
            assert "FAIL " in out
            assert re.search(r"\n\d+/\d+ checks passed\n$", out)
        else:
            assert re.fullmatch(r"error: [A-Za-z]+: [^\n]*\n", err)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "affine_libor.cli", "caplet",
             "--config", str(CIR_CFG), "--method", "closed"],
            capture_output=True, text=True, cwd=REPO)
        assert proc.returncode == 0
        assert "price = " in proc.stdout

    def test_numpy_warnings_stay_off_stderr(self, tmp_path):
        # from x0 = 1e300 the swaption integrand overflows to nan, which
        # numpy reports in six RuntimeWarnings; the error line must be
        # all of stderr.  pytest captures warnings, so a fresh process
        # runs the command.
        cfg = bundled_config(tmp_path, "gamma_ou", "process.x0 = 1e300\n")
        proc = subprocess.run(
            [sys.executable, "-m", "affine_libor.cli", "swaption",
             "--config", str(cfg), "--method", "fourier"],
            capture_output=True, text=True, cwd=REPO)
        assert proc.returncode == 1
        assert proc.stderr == ("error: QuadratureFailure: swaption "
                               "quadrature error nan out of control\n")


class TestRunConfig:
    def test_from_file_overrides(self):
        cfg = RunConfig.from_file(str(CIR_CFG), seed=99, method="fourier")
        assert cfg.seed == 99
        assert cfg.method == "fourier"
        assert cfg.strikes[0] == pytest.approx(0.01)
        assert cfg.strikes[-1] == pytest.approx(0.06)
        assert len(cfg.strikes) == 11

    def test_strike_grid_holds_at_most_ten_thousand_points(self):
        assert len(_strike_grid("0:0.9999:1e-4")) == 10_000
        with pytest.raises(InvalidParameter):
            _strike_grid("0:1:1e-4")

    def test_run_command_api(self, tmp_path, capsys):
        from affine_libor.cli import run_command
        cfg = RunConfig.from_file(str(CIR_CFG), method="closed")
        out = tmp_path / "us.txt"
        assert run_command("calibrate", cfg, out=str(out)) == 0
        assert out.exists()
        with pytest.raises(InvalidParameter):
            run_command("greeks", cfg)
        capsys.readouterr()
