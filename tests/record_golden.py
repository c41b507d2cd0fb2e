"""Re-record the CLI golden files and summarise how far they moved.

Runs every case of ``test_golden.CASES`` through ``argv_for`` exactly as
the golden test does, overwrites the recordings under
``tests/data/golden/`` and prints one line per recording: the lines
moved, the largest price shift, the largest relative shift of the
u-sequence and, for surfaces, the largest implied-vol shift together with
that cell's Black vega (a vol shift is only as meaningful as the price
shift divided by the vega).  Where a recording prints a
``quadrature_error``, the price shift is also given as a multiple of it
(of the largest, should a recording print several).

    PYTHONPATH=src python tests/record_golden.py
"""

import contextlib
import io
import math
import os
import re
import sys
import tempfile
from pathlib import Path

from test_golden import (CASES, CURVE, GOLDEN, OUT_FILES, argv_for,
                         case_name)

from affine_libor.cli import load_tenor_csv, main

# keys whose values are prices in the stdout recordings
PRICE_KEYS = ("price", "closed", "mc", "fourier")
_KEY_VALUE = re.compile(r"([A-Za-z_]+)\s*=\s*(\S+)")


def black_vega(tenor, expiry: float, strike: float, vol: float) -> float:
    """Vega of a caplet fixing at ``expiry`` on the golden curve."""
    k = next(k for k in range(1, tenor.n_periods)
             if abs(tenor.date(k) - expiry) < 1e-9)
    fwd, annuity = tenor.initial_libor(k), tenor.delta * tenor.bond(k + 1)
    if vol <= 0.0:
        return 0.0
    total = vol * math.sqrt(expiry)
    d1 = (math.log(fwd / strike) + 0.5 * total * total) / total
    return annuity * fwd * math.sqrt(expiry) \
        * math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)


def _moved(old: str, new: str):
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        raise SystemExit(f"line count changed: {len(old_lines)} -> "
                         f"{len(new_lines)}")
    pairs = [(a, b) for a, b in zip(old_lines, new_lines) if a != b]
    return pairs, len(new_lines)


def summarise(name: str, old: str, new: str, tenor) -> str:
    if not old:
        return f"{name}: new recording"
    pairs, total = _moved(old, new)
    parts = [f"{len(pairs)} of {total} lines moved"]
    if name.endswith(".us.txt"):
        shift = max((abs(float(b) - float(a)) / abs(float(a))
                     for x, y in pairs
                     for a, b in zip(x.split(","), y.split(","))
                     if float(a) != 0.0), default=0.0)
        parts.append(f"us {shift:.2g} relative")
    elif name.endswith(".csv"):
        price, vol, cell = 0.0, 0.0, None
        for x, y in pairs:
            expiry, strike, p0, v0 = map(float, x.split(","))
            _, _, p1, v1 = map(float, y.split(","))
            price = max(price, abs(p1 - p0))
            if abs(v1 - v0) > vol:
                vol, cell = abs(v1 - v0), (expiry, strike, v1)
        parts.append(f"price {price:.2g}")
        if cell is not None:
            vega = black_vega(tenor, *cell)
            parts.append(f"vol {vol:.2g} (T={cell[0]:g} K={cell[1]:g}, "
                         f"vega {vega:.2g})")
    else:
        shift = 0.0
        for x, y in pairs:
            before = dict(_KEY_VALUE.findall(x))
            for key, value in _KEY_VALUE.findall(y):
                if key in PRICE_KEYS and key in before:
                    shift = max(shift, abs(float(value) - float(before[key])))
        parts.append(f"price {shift:.2g}")
        # a quote that certifies its error must move within it
        errors = [float(value) for key, value in _KEY_VALUE.findall(new)
                  if key == "quadrature_error"]
        if shift and errors:
            parts.append(f"{shift / max(errors):.2g} x quadrature_error")
    return f"{name}: " + ", ".join(parts)


def record(family, command, method, tenor):
    """Run one case in a scratch directory; write its recordings."""
    name = case_name(family, command, method)
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = main(argv_for(Path(tmp), family, command, method))
            if status != 0:
                raise SystemExit(f"{name}: exit status {status}")
            files = {f"{name}.out": out.getvalue()}
            if command in OUT_FILES:
                recording = f"{family}.us.txt" if command == "calibrate" \
                    else f"{name}.csv"
                files[recording] = \
                    (Path(tmp) / OUT_FILES[command]).read_text()
        finally:
            os.chdir(here)
    for fname, text in files.items():
        path = GOLDEN / fname
        old = path.read_text() if path.exists() else ""
        print(summarise(fname, old, text, tenor))
        path.write_text(text)


def run():
    tenor = load_tenor_csv(str(CURVE))
    for case in CASES:
        record(*case, tenor)


if __name__ == "__main__":
    sys.exit(run())
