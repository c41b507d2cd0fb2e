import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from affine_libor.cli import (RunConfig, build_process, load_tenor_csv, main,
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
    ])
    def test_out_of_range_input_is_invalid_parameter(self, tmp_path, capsys,
                                                     command, line):
        cfg = write(tmp_path, "c.cfg",
                    CIR_CFG_TEMPLATE.format(tenor=TABLE1) + line + "\n")
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: InvalidParameter")


    # A truncation or tolerance that is zero, negative or not finite used
    # to price 0 with a zero error, or to end in a traceback.
    @pytest.mark.parametrize("line", [
        "quadrature.truncation = 0", "quadrature.truncation = -5",
        "quadrature.truncation = nan", "quadrature.truncation = inf",
        "quadrature.rel_tol = nan", "quadrature.rel_tol = 0",
        "quadrature.rel_tol = -1", "quadrature.damping = nan"])
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


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "affine_libor.cli", "caplet",
             "--config", str(CIR_CFG), "--method", "closed"],
            capture_output=True, text=True, cwd=REPO)
        assert proc.returncode == 0
        assert "price = " in proc.stdout


class TestRunConfig:
    def test_from_file_overrides(self):
        cfg = RunConfig.from_file(str(CIR_CFG), seed=99, method="fourier")
        assert cfg.seed == 99
        assert cfg.method == "fourier"
        assert cfg.strikes[0] == pytest.approx(0.01)
        assert cfg.strikes[-1] == pytest.approx(0.06)
        assert len(cfg.strikes) == 11

    def test_run_command_api(self, tmp_path, capsys):
        from affine_libor.cli import run_command
        cfg = RunConfig.from_file(str(CIR_CFG), method="closed")
        out = tmp_path / "us.txt"
        assert run_command("calibrate", cfg, out=str(out)) == 0
        assert out.exists()
        with pytest.raises(InvalidParameter):
            run_command("greeks", cfg)
        capsys.readouterr()


class TestPathDump:
    def test_csv_layout(self, tmp_path):
        from affine_libor.montecarlo import RngStream, simulate_cir
        from affine_libor.processes import CirParams
        batch = simulate_cir(CirParams(0.5, 0.4, 0.2, 1.0), [0.5, 1.0], 3,
                             RngStream(1))
        out = tmp_path / "paths.csv"
        batch.dump_csv(str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "path_id,time,factor_index,state,weight"
        assert len(lines) == 1 + 3 * 2 * 1
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 0.5
        assert first[4] == ""  # no weights attached
