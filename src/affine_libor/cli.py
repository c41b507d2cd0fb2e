"""Batch command-line front-end.

    affine-libor <command> --config <path> [--out <path>] [--seed N]
                 [--method fourier|closed]

Commands: ``calibrate`` (write the fitted u-sequence), ``caplet`` /
``swaption`` (print price and diagnostics), ``surface`` (write the
implied-vol CSV), ``validate`` (martingale and oracle-agreement report).

The config file is flat ``section.key = value`` text; ``#`` starts a
comment.  All numeric output uses 12 significant digits, and a fixed seed
makes every command's output byte-identical across runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import dataclass, field
from functools import partial
from types import FunctionType

import numpy as np

from .errors import (AffineLiborError, InvalidParameter, NonMonotoneCurve,
                     ParseError)
from .model import CalibratedModel, TenorStructure, fit_term_structure
from .montecarlo import (RngStream, agrees, forward_measure_weights,
                         martingale_checks, mc_caplet, model_states)
from .pricing import (CapletSpec, SwaptionSpec, caplet_closed,
                      caplet_fourier, swaption_cir_closed, swaption_fourier,
                      vol_surface)
from .processes import CirParams, GammaOuParams, ProductProcess

_FMT = "{:.12g}"
# Most points a surface.strikes grid may have, and most Monte Carlo paths.
_MAX_STRIKES = 10_000
_MAX_MC_PATHS = 10_000_000


def _fmt(x) -> str:
    return _FMT.format(float(x))


def parse_config_text(text: str) -> dict:
    """Flat key = value pairs with section-prefixed keys."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"config line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def load_tenor_csv(path: str) -> TenorStructure:
    """Parse a ``maturity,discount[,delta]`` CSV into a tenor structure.

    The accrual is inferred from the (uniform) maturity spacing; an
    optional per-row delta column must agree with that spacing.  Raises
    ParseError with the offending row number, InvalidParameter for a value
    that is not finite or a discount outside (0, 1], or NonMonotoneCurve
    when the discounts imply a negative initial forward rate.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise ParseError(f"cannot read tenor file {path}: {exc}") from exc
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln]
    if not rows:
        raise ParseError(f"{path}: empty tenor file")
    header = [c.strip().lower() for c in rows[0][1].split(",")]
    if header[:2] != ["maturity", "discount"]:
        raise ParseError(f"{path} row 1: header must be maturity,discount")
    has_delta = len(header) > 2 and header[2] == "delta"
    maturities, discounts, deltas = [], [], []
    for rowno, line in rows[1:]:
        cells = [c.strip() for c in line.split(",")]
        try:
            maturities.append(float(cells[0]))
            discounts.append(float(cells[1]))
            if has_delta:
                deltas.append(float(cells[2]))
        except (ValueError, IndexError) as exc:
            raise ParseError(f"{path} row {rowno}: {exc}") from exc
        if len(maturities) > 1 and maturities[-1] <= maturities[-2]:
            raise ParseError(f"{path} row {rowno}: maturities must increase")
    if len(maturities) < 2:
        raise ParseError(f"{path}: need at least two rows")
    gaps = np.diff(maturities)
    if np.any(np.abs(gaps - gaps[0]) > 1e-9):
        raise ParseError(f"{path}: non-uniform maturity spacing")
    if has_delta and np.any(np.abs(np.asarray(deltas) - gaps[0]) > 1e-9):
        raise ParseError(f"{path}: delta column disagrees with spacing")
    tenor = TenorStructure.from_curve(np.asarray(maturities),
                                      np.asarray(discounts), float(gaps[0]))
    if np.any(np.diff(discounts) > 0.0):
        raise NonMonotoneCurve(
            f"{path}: increasing discounts imply negative initial rates")
    return tenor


def _setting(cfg: dict, key: str, kind=float, default=None):
    """``kind`` applied to cfg[key], or to ``default`` when the key is
    absent; a key without a default is required.  A missing key or an
    unreadable value ends as ParseError naming the key."""
    if key not in cfg and default is None:
        raise ParseError(f"missing required config key {key}")
    try:
        return kind(cfg.get(key, default))
    except ValueError as exc:
        raise ParseError(f"config key {key}: {exc}") from exc


def build_process(cfg: dict):
    family = cfg.get("process.family", "").lower().replace("_", "-")

    def param(name, default=None):
        return _setting(cfg, f"process.{name}", default=default)

    if family == "cir":
        return CirParams(param("lambda"), param("theta"), param("eta"),
                         param("x0", "1.0"))
    if family == "gamma-ou":
        return GammaOuParams(param("lambda"), param("alpha"), param("beta"),
                             param("x0", "1.0"))
    if family == "cir-2f":
        return ProductProcess([
            CirParams(param(f"lambda{j}"), param(f"theta{j}"),
                      param(f"eta{j}"), param(f"x0{j}", "1.0"))
            for j in (1, 2)])
    raise InvalidParameter(
        f"unknown process.family {cfg.get('process.family')!r} "
        "(use cir, gamma-ou or cir-2f)")


def _strike_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise InvalidParameter(
            f"surface.strikes must be min:max:step, got {spec!r}") from exc
    if not (step > 0.0 and lo <= hi and np.isfinite([lo, hi, step]).all()):
        raise InvalidParameter(
            f"surface.strikes needs min <= max and step > 0, got {spec!r}")
    n = (hi - lo) / step
    # the grid has round(n) + 1 points; nan and inf fail here too
    if not n < _MAX_STRIKES - 0.5:
        raise InvalidParameter(f"surface.strikes has more than "
                               f"{_MAX_STRIKES} points, got {spec!r}")
    return lo + step * np.arange(int(round(n)) + 1)


@dataclass
class RunConfig:
    """Everything a command needs, resolved from file plus CLI overrides."""

    process: object
    tenor: TenorStructure
    x0: np.ndarray | None
    calibration_tol: float
    rel_tol: float
    strikes: np.ndarray
    method: str
    seed: int
    mc_paths: int
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str, seed: int | None = None,
                  method: str | None = None) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = parse_config_text(fh.read())
        except OSError as exc:
            raise ParseError(f"cannot read config file {path}: {exc}") \
                from exc
        # A relative tenor path is resolved next to the config file.
        tenor_path = os.path.join(os.path.dirname(os.path.abspath(path)),
                                  _setting(cfg, "tenor.path", str))
        x0 = None
        if "model.x0" in cfg:
            x0 = np.array(_setting(
                cfg, "model.x0", lambda text: [float(v)
                                               for v in text.split(",")]))
        # The contour and the head width are fixed: the only quadrature
        # setting is the target relative error.
        for key in cfg:
            if key.startswith("quadrature.") and key != "quadrature.rel_tol":
                raise ParseError(f"config key {key} is not a setting (the "
                                 "only quadrature key is quadrature.rel_tol)")
        rel_tol = _setting(cfg, "quadrature.rel_tol", default="1e-9")
        if not 0.0 < rel_tol < np.inf:
            raise InvalidParameter("quadrature rel_tol must be finite and "
                                   f"positive, got {rel_tol}")
        method = method or cfg.get("surface.method", "fourier")
        if method not in ("fourier", "closed"):
            raise InvalidParameter(
                f"surface.method must be fourier or closed, got {method!r}")
        return cls(
            process=build_process(cfg),
            tenor=load_tenor_csv(tenor_path),
            x0=x0,
            calibration_tol=_setting(cfg, "calibration.tol",
                                     default="1e-12"),
            rel_tol=rel_tol,
            strikes=_strike_grid(cfg.get("surface.strikes",
                                         "0.01:0.06:0.005")),
            method=method,
            seed=seed if seed is not None else _setting(cfg, "mc.seed", int,
                                                        "1"),
            mc_paths=_setting(cfg, "mc.paths", int, "100000"),
            raw=cfg)

    def calibrate(self) -> CalibratedModel:
        return fit_term_structure(self.tenor, self.process, x0=self.x0,
                                  tol=self.calibration_tol)


def _cmd_calibrate(cfg: RunConfig, out: str, write) -> int:
    model = cfg.calibrate()
    resid = max(model.residuals)
    lines = [",".join(_fmt(v) for v in row) for row in model.us]
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    write(f"calibrated {model.n_periods} parameters to {out}")
    write(f"max residual = {_fmt(resid)}")
    return 0


def _cmd_caplet(cfg: RunConfig, write) -> int:
    model = cfg.calibrate()
    spec = CapletSpec(_setting(cfg.raw, "caplet.index", int, "1"),
                      _setting(cfg.raw, "caplet.strike", default="0.03"))
    if cfg.method == "closed":
        res = caplet_closed(model, spec)
    else:
        res = caplet_fourier(model, spec, cfg.rel_tol)
    write(f"caplet k={spec.period_index} strike={_fmt(spec.strike)} "
          f"method={cfg.method}")
    write(f"price = {_fmt(res.price)}")
    write(f"quadrature_error = {_fmt(res.error_estimate)}")
    if res.damping is not None:
        write(f"damping = {_fmt(res.damping)}")
    return 0


def _cmd_swaption(cfg: RunConfig, write) -> int:
    model = cfg.calibrate()
    spec = SwaptionSpec(_setting(cfg.raw, "swaption.start", int, "1"),
                        _setting(cfg.raw, "swaption.end", int, "2"),
                        _setting(cfg.raw, "swaption.strike", default="0.03"))
    if cfg.method == "closed":
        res = swaption_cir_closed(model, spec)
    else:
        res = swaption_fourier(model, spec, cfg.rel_tol)
    write(f"swaption start={spec.start_index} end={spec.end_index} "
          f"strike={_fmt(spec.strike)} method={cfg.method}")
    write(f"price = {_fmt(res.price)}")
    write(f"quadrature_error = {_fmt(res.error_estimate)}")
    write(f"exercise_root = {_fmt(res.root)}")
    if res.damping is not None:
        write(f"damping = {_fmt(res.damping)}")
    return 0


def _cmd_surface(cfg: RunConfig, out: str, write) -> int:
    model = cfg.calibrate()
    cells = vol_surface(model, cfg.strikes, method=cfg.method,
                        rel_tol=cfg.rel_tol)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("expiry,strike,price,implied_vol\n")
        for cell in cells:
            fh.write(f"{_fmt(cell.expiry)},{_fmt(cell.strike)},"
                     f"{_fmt(cell.price)},{_fmt(cell.implied_vol)}\n")
    failed = [c for c in cells if c.error is not None]
    write(f"surface written to {out}: {len(cells)} cells, "
          f"{len(failed)} failed")
    if failed:
        print(f"error: {failed[0].error}: {len(failed)} of {len(cells)} "
              "cells failed", file=sys.stderr)
    return 1 if failed else 0


def _wrapped() -> bool:
    """Whether a module of this package holds a wrapped function
    (``functools.wraps`` leaves ``__wrapped__``): a profiler, tracer or
    test double put there from outside, whose bookkeeping (one call stack
    for the process, say) need not be thread-safe."""
    prefix = __name__.rpartition(".")[0] + "."
    return any(getattr(value, "__wrapped__", None) is not None
               for name, mod in list(sys.modules.items())
               if name.startswith(prefix)
               for value in vars(mod).values()
               if isinstance(value, FunctionType))


def _run_tasks(tasks) -> list:
    """Results of the zero-argument callables ``tasks``, in their order.

    A pool of one thread per usable core (at most one per task) runs the
    tasks while the calling thread waits.  With one core, or while a
    function of the package is wrapped (:func:`_wrapped`), they run in
    order on the calling thread, so a wrapper sees one call at a time.
    Results are taken in task order, so the exception raised is that of
    the first task in order that raised: every task before it has run,
    so it is the exception a run in order would have raised.  Tasks not
    yet started are then cancelled, and every pool thread has ended
    before this returns or raises.
    """
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        workers = os.cpu_count() or 1
    workers = min(workers, len(tasks))
    if workers <= 1 or _wrapped():
        return [task() for task in tasks]
    # imported here: the commands that run no tasks never load it
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(workers)
    try:
        futures = [pool.submit(task) for task in tasks]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _cmd_validate(cfg: RunConfig, write) -> int:
    if not 2 <= cfg.mc_paths <= _MAX_MC_PATHS:
        raise InvalidParameter(f"mc.paths must be 2..{_MAX_MC_PATHS}, "
                               f"got {cfg.mc_paths}")
    model = cfg.calibrate()
    n_paths = cfg.mc_paths
    ks = range(1, model.n_periods + 1)
    horizon = model.horizon
    times = [model.tenor.date(1), 0.5 * horizon, horizon]

    # Five independent simulations, each on its own stream; every task
    # returns its (passed, label) lines.
    def martingale(j):
        t = times[j]
        return [(rep.passed(), f"martingale k={rep.index} t={_fmt(t)} "
                               f"z={_fmt(rep.z_score)} "
                               f"min={_fmt(rep.min_value)}")
                for rep in martingale_checks(model, ks, t, n_paths,
                                             RngStream(cfg.seed, j))]

    def weights():
        x = model_states(model, times[0], n_paths, RngStream(cfg.seed, 10))
        lines = []
        for k in ks:
            w = forward_measure_weights(model, k, times[0], x)
            mean, se = w.mean(), w.std(ddof=1) / np.sqrt(n_paths)
            z = 0.0 if se == 0.0 else (mean - 1.0) / se
            lines.append((agrees(mean, 1.0, se),
                          f"weight mean k={k} z={_fmt(z)}"))
        return lines

    def caplet_oracle():
        k_test = _setting(cfg.raw, "caplet.index", int, "2")
        strike = _setting(cfg.raw, "caplet.strike", default="0.03")
        spec = CapletSpec(k_test, strike)
        try:
            analytic = caplet_closed(model, spec).price
            label = "closed"
        except AffineLiborError:
            analytic = caplet_fourier(model, spec, cfg.rel_tol).price
            label = "fourier"
        est, se = mc_caplet(model, k_test, strike, n_paths,
                            RngStream(cfg.seed, 11))
        z = (analytic - est) / se if se > 0.0 else 0.0
        return [(agrees(est, analytic, se),
                 f"caplet oracle k={k_test} {label}={_fmt(analytic)} "
                 f"mc={_fmt(est)} z={_fmt(z)}")]

    resid = max(model.residuals)
    checks = [(resid <= cfg.calibration_tol,
               f"calibration residual {_fmt(resid)}")]
    tasks = [partial(martingale, j) for j in range(len(times))]
    for lines in _run_tasks(tasks + [weights, caplet_oracle]):
        checks.extend(lines)

    failures = 0
    for ok, label in checks:
        write(("PASS " if ok else "FAIL ") + label)
        failures += 0 if ok else 1
    write(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


def run_command(command: str, cfg: RunConfig, out: str | None = None,
                write=print) -> int:
    """Execute one batch command against a resolved configuration.

    Returns the process exit status (0 on success, 1 on any check or
    module failure); ``out`` overrides the default output file of the
    file-writing commands.
    """
    if command == "calibrate":
        return _cmd_calibrate(cfg, out or "us.txt", write)
    if command == "caplet":
        return _cmd_caplet(cfg, write)
    if command == "swaption":
        return _cmd_swaption(cfg, write)
    if command == "surface":
        return _cmd_surface(cfg, out or "surface.csv", write)
    if command == "validate":
        return _cmd_validate(cfg, write)
    raise InvalidParameter(f"unknown command {command!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="affine-libor",
        description="Calibration, pricing and validation for affine "
                    "bond-ratio LIBOR models.")
    parser.add_argument("command", choices=["calibrate", "caplet", "swaption",
                                            "surface", "validate"])
    parser.add_argument("--config", required=True, help="flat key=value file")
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--method", choices=["fourier", "closed"],
                        default=None)
    args = parser.parse_args(argv)
    # numpy's overflow and invalid-value warnings stay off stderr: a
    # result they spoil fails a check and ends as one error line.  The
    # filter is process-wide, so it covers validate's pool threads too.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            cfg = RunConfig.from_file(args.config, seed=args.seed,
                                      method=args.method)
            return run_command(args.command, cfg, out=args.out)
        except AffineLiborError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:  # an output file that cannot be written
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
