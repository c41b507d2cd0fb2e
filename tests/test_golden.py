"""Byte-for-byte CLI output on the bundled configs.

The recordings under ``tests/data/golden/`` are the stdout (and, for
``calibrate``, the written u-sequence; for ``surface``, the written CSV)
of each command below.  A change
that is meant to leave results alone must leave these bytes alone; a
change that moves them on purpose re-records them and says why.

Each config runs with its tenor file made absolute and ``mc.paths``
lowered so that ``validate`` stays fast; the seed is fixed on the
command line.
"""

from pathlib import Path

import pytest

from affine_libor.cli import main

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "data" / "golden"
CURVE = REPO / "data" / "zcb_euro_2002-02-19.csv"
MC_PATHS = 4000
SEED = 3

# (config, command, method) as the benchmark's command mix runs them:
# cir-2f has no swaption spec, gamma-OU no closed form.
CASES = [
    ("cir", "calibrate", None),
    ("cir", "caplet", "closed"),
    ("cir", "caplet", "fourier"),
    ("cir", "swaption", "closed"),
    ("cir", "swaption", "fourier"),
    ("cir", "validate", None),
    ("gamma_ou", "calibrate", None),
    ("gamma_ou", "caplet", "fourier"),
    ("gamma_ou", "swaption", "fourier"),
    ("gamma_ou", "validate", None),
    ("cir_2f", "calibrate", None),
    ("cir_2f", "caplet", "closed"),
    ("cir_2f", "caplet", "fourier"),
    ("cir_2f", "validate", None),
    ("cir", "surface", "closed"),
    ("cir", "surface", "fourier"),
    ("gamma_ou", "surface", "fourier"),
    ("cir_2f", "surface", "closed"),
    ("cir_2f", "surface", "fourier"),
]


# Files written by the file-producing commands, and the suffix of their
# recording.
OUT_FILES = {"calibrate": "us.txt", "surface": "surface.csv"}


def case_name(family, command, method):
    return f"{family}.{command}" + (f"-{method}" if method else "")


def argv_for(tmp_path, family, command, method):
    """Command line of one case, with its config copied into tmp_path."""
    text = (REPO / "configs" / f"{family}.cfg").read_text()
    cfg = tmp_path / f"{family}.cfg"
    cfg.write_text(text + f"\ntenor.path = {CURVE}\nmc.paths = {MC_PATHS}\n")
    argv = [command, "--config", str(cfg), "--seed", str(SEED)]
    if method:
        argv += ["--method", method]
    if command in OUT_FILES:
        argv += ["--out", OUT_FILES[command]]
    return argv


@pytest.mark.parametrize("family, command, method", CASES,
                         ids=[case_name(*c) for c in CASES])
def test_cli_output_matches_recording(tmp_path, monkeypatch, capsys,
                                      family, command, method):
    monkeypatch.chdir(tmp_path)
    assert main(argv_for(tmp_path, family, command, method)) == 0
    name = case_name(family, command, method)
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
    if command == "calibrate":
        assert (tmp_path / "us.txt").read_bytes() == \
            (GOLDEN / f"{family}.us.txt").read_bytes()
    if command == "surface":
        assert (tmp_path / "surface.csv").read_bytes() == \
            (GOLDEN / f"{name}.csv").read_bytes()
