"""Seeded workloads: generated inputs, timed operations, correctness gates.

Every workload writes its inputs (flat ``.cfg`` files plus the tenor CSV)
into a work directory, so the library sees only generated files.  The
seed picks strike grids, quote indices and strikes, the Monte Carlo seed
of ``validate`` and the Riccati nodes; the model parameters are those of
the bundled ``configs/*.cfg``, copied here so that the inputs change only
when the benchmark does.
"""

from __future__ import annotations

import math
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from affine_libor import affine_core, cli, model, processes

# Euro zone zero-coupon bond prices of 2002-02-19 (data/zcb_euro_*.csv).
CURVE = [(0.5, 0.9833630), (1.0, 0.9647388), (1.5, 0.9435826),
         (2.0, 0.9228903), (2.5, 0.9006922), (3.0, 0.8790279),
         (3.5, 0.8568412), (4.0, 0.8352144), (4.5, 0.8133497),
         (5.0, 0.7920573)]
DELTA = 0.5
COMMON = {
    "tenor.path": "curve.csv",
    "calibration.tol": "1e-12",
    "quadrature.rel_tol": "1e-9",
    "mc.paths": "100000",
    "mc.seed": "20020219",
}
FAMILIES = {
    "cir": {"process.family": "cir", "process.lambda": "0.001",
            "process.theta": "0.5", "process.eta": "0.59",
            "process.x0": "1.25",
            "caplet.index": "2", "caplet.strike": "0.03"},
    "gamma_ou": {"process.family": "gamma-ou", "process.lambda": "0.01",
                 "process.alpha": "2.0", "process.beta": "1.0",
                 "process.x0": "1.25",
                 "caplet.index": "2", "caplet.strike": "0.04"},
    "cir_2f": {"process.family": "cir-2f", "process.lambda1": "0.5",
               "process.theta1": "0.6", "process.eta1": "0.25",
               "process.x01": "1.0", "process.lambda2": "1.2",
               "process.theta2": "0.4", "process.eta2": "0.3",
               "process.x02": "1.0",
               "caplet.index": "2", "caplet.strike": "0.03"},
}

# Fourier against the chi-square closed form: (relative, absolute).  The
# relative parts are the acceptance tolerances (tests/test_acceptance.py,
# criteria 2 and 9 for one factor, 7 for two).  The absolute parts are the
# closed forms' own certified accuracy (Poisson series 1e-13, Imhof
# mixture CDF 1e-10), which decides deep out-of-the-money cells whose
# price is below it.
CLOSED_GAP = {"cir": (1e-6, 1e-13), "cir_2f": (1e-5, 1e-10)}
CALIBRATION_RESIDUAL = 1e-12
RICCATI_TOL = 1e-9
# Prices are printed with 12 significant digits; static bounds get this
# much absolute slack.
BOUND_SLACK = 1e-10

# Surface grids: (lowest strike of the bundled grid, number of strikes).
# The seed shifts the whole grid by up to a tenth of a step.  Wider shifts
# move gamma-OU strikes across the driver's rate floors, which changes the
# Fourier work of the surface by up to 40% from one seed to the next.
STRIKE_STEP = 0.005
STRIKE_JITTER = 0.0005
SURFACE_GRIDS = {"cir": (0.01, 11), "gamma_ou": (0.025, 10),
                 "cir_2f": (0.01, 11)}

# cli-commands mix, per pass: for each family, CLI_QUOTES caplet and
# swaption specs, each priced by every method the family supports, plus
# CLI_CALIBRATES calibrations and one validate: 111 commands.  The indices
# are a fixed design that covers every expiry and swap start; the strike
# of quote q sits in slot 5q mod 12 of the family's strike range, which
# spreads moneyness across expiries.  The seed moves each strike within a
# quarter of its slot, shuffles the command order and picks the validate
# seed.  (Drawing the indices too moved cmd_p50_ms by 7% between seeds.)
CLI_METHODS = {
    "cir": {"caplet": ("closed", "fourier"), "swaption": ("closed", "fourier")},
    "gamma_ou": {"caplet": ("fourier",), "swaption": ("fourier",)},
    "cir_2f": {"caplet": ("closed", "fourier")},
}
CLI_STRIKES = {"cir": (0.02, 0.05), "gamma_ou": (0.03, 0.06),
               "cir_2f": (0.02, 0.05)}
CLI_CAPLETS = ((1,), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (2,),
               (5,), (8,))
CLI_SWAPTIONS = ((1, 2), (1, 4), (2, 6), (3, 10), (4, 6), (5, 8), (6, 10),
                 (7, 9), (8, 10), (2, 4), (4, 10), (1, 10))
CLI_QUOTES = len(CLI_CAPLETS)
CLI_CALIBRATES = 4
# validate runs 43 three-sigma tests; at 100k paths about one seed in a
# hundred trips one of them by chance (seed 17 on cir-2f: caplet oracle
# z = 3.25).  Seeds come from this list, on which every config passes at
# the commit that defined the benchmark, so a FAIL means the sampler or a
# pricer changed its output, not bad luck.
VALIDATE_SEEDS = tuple(s for s in range(1, 41) if s != 17)

# riccati-only: Riccati copies of these drivers, nodes per horizon, and
# the admissible box Re u in [-0.5, 0.25), Im u in [0, 64).  0.25 is below
# the square-root driver's domain bound at the longest horizon (0.32).
# A solve costs more steps as |Im u| grows, so Im u takes one node per
# slice of [0, 64) (see _slots); Re u is drawn freely.
RICCATI_FAMILIES = ("cir", "gamma_ou")
RICCATI_HORIZONS = (1.0, 2.5, 4.5)
RICCATI_NODES = 8
RICCATI_RE = (-0.5, 0.25)
RICCATI_IM_MAX = 64.0


@dataclass
class Op:
    """One timed library call.

    ``run`` is timed; ``collect`` turns its raw result into the output the
    gate checks and runs after the pass.  ``units`` is what the op counts
    as attempted, ``cells`` what it adds to ``cells_per_s``.
    """

    label: str
    run: Callable[[], object]
    units: int = 1
    cells: int = 1
    collect: Callable[[object], object] = lambda raw: raw
    meta: dict = field(default_factory=dict)


def _write_config(path: str, family: str, extra: dict):
    entries = dict(COMMON)
    entries.update(FAMILIES[family])
    entries.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in entries.items())


def _write_curve(workdir: str):
    with open(os.path.join(workdir, COMMON["tenor.path"]), "w",
              encoding="utf-8") as fh:
        fh.write("maturity,discount\n")
        fh.writelines(f"{t},{b}\n" for t, b in CURVE)


def _bond(k: int) -> float:
    return CURVE[k - 1][1]


def _caplet_bounds(k: int, strike: float):
    annuity = DELTA * _bond(k + 1)
    fwd = (_bond(k) / _bond(k + 1) - 1.0) / DELTA
    return annuity * max(fwd - strike, 0.0), annuity * fwd


def _swaption_bounds(start: int, end: int, strike: float):
    swap = _bond(start) - DELTA * strike * sum(
        _bond(k) for k in range(start + 1, end + 1)) - _bond(end)
    return max(swap, 0.0), _bond(start)


def _within(value: float, lo: float, hi: float) -> bool:
    return math.isfinite(value) and \
        lo - BOUND_SLACK <= value <= hi + BOUND_SLACK


def _agree(fourier: float, closed: float, family: str) -> bool:
    rel, floor = CLOSED_GAP[family]
    return abs(fourier - closed) <= rel * closed + floor


def _run_cli(command: str, cfg, out: str | None):
    lines = []
    rc = cli.run_command(command, cfg, out=out, write=lines.append)
    return rc, lines


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _slots(rng: random.Random, lo: float, hi: float, n: int):
    """One value in each of n equal slices of [lo, hi), ascending.

    Each value lies within a quarter slice of its slice's centre, so the
    seed moves inputs without changing how much work they take.
    """
    return [lo + (hi - lo) * (i + 0.25 + 0.5 * rng.random()) / n
            for i in range(n)]


class Workload:
    """Common driver: manifest of configs to load, ops, gate."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}/{seed}")
        # One entry per configuration a command loads: what set-up costs.
        self.manifest: list[dict] = []
        self.cfgs: list = []
        _write_curve(workdir)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def add_config(self, fname: str, family: str, extra: dict,
                   seed: int | None = None, method: str | None = None) -> int:
        path = self.path(fname)
        if not os.path.exists(path):
            _write_config(path, family, extra)
        self.manifest.append({"config": path, "seed": seed,
                              "method": method, "family": family})
        return len(self.manifest) - 1

    def load(self):
        """Resolve every generated config, as each CLI call would."""
        self.cfgs = [cli.RunConfig.from_file(e["config"], seed=e["seed"],
                                             method=e["method"])
                     for e in self.manifest]

    def ops(self, tracer=None) -> list[Op]:
        raise NotImplementedError

    def gate(self, ops: list[Op], outputs: list) -> list[int]:
        """Failed units per op, from the outputs of one pass."""
        raise NotImplementedError


def _parse_surface(text: str):
    rows = [ln.split(",") for ln in text.strip().splitlines()[1:]]
    return [tuple(float(v) for v in row) for row in rows]


class SurfaceWorkload(Workload):
    """``surface`` over two configs with seeded strike grids."""

    method = ""
    families: tuple = ()

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.grids = {}
        for fam in self.families:
            lo0, n = SURFACE_GRIDS[fam]
            lo = round(lo0 + STRIKE_JITTER * self.rng.random(), 6)
            hi = round(lo + (n - 1) * STRIKE_STEP, 6)
            self.grids[fam] = (lo, n)
            self.add_config(f"{fam}.cfg", fam,
                            {"surface.strikes": f"{lo}:{hi}:{STRIKE_STEP}",
                             "surface.method": self.method},
                            method=self.method)

    def ops(self, tracer=None):
        out = []
        for i, entry in enumerate(self.manifest):
            fam = entry["family"]
            csv = self.path(f"{fam}-{self.method}.csv")
            cells = 9 * self.grids[fam][1]
            out.append(Op(
                f"surface {fam} {self.method}",
                lambda cfg=self.cfgs[i], csv=csv: _run_cli("surface", cfg, csv),
                units=cells, cells=cells,
                collect=lambda raw, csv=csv: (raw[0], raw[1], _read(csv)),
                meta={"family": fam, "config": entry["config"]}))
        return out

    def _reference(self, op: Op):
        """The same surface by the other method (untimed)."""
        other = "closed" if self.method == "fourier" else "fourier"
        cfg = cli.RunConfig.from_file(op.meta["config"], method=other)
        csv = self.path(f"{op.meta['family']}-{other}.csv")
        rc, _ = _run_cli("surface", cfg, csv)
        return _parse_surface(_read(csv)) if rc == 0 else None

    def gate(self, ops, outputs):
        failed = []
        for op, out in zip(ops, outputs):
            if isinstance(out, Exception) or out[0] != 0:
                failed.append(op.units)
                continue
            fam = op.meta["family"]
            cells = _parse_surface(out[2])
            if len(cells) != op.units:
                failed.append(op.units)
                continue
            ref = self._reference(op) if fam in CLOSED_GAP else None
            bad = 0
            for j, (expiry, strike, price, vol) in enumerate(cells):
                k = round(expiry / DELTA)
                ok = math.isfinite(vol) and vol >= 0.0 and \
                    _within(price, *_caplet_bounds(k, strike))
                if fam == "cir":
                    ok = ok and vol > 0.0  # criterion 9: all vols positive
                if fam in CLOSED_GAP:
                    other = ref[j][2] if ref else math.nan
                    closed, fourier = (price, other) \
                        if self.method == "closed" else (other, price)
                    ok = ok and _agree(fourier, closed, fam)
                if not ok:
                    bad += 1
                    print(f"gate: {op.label}: T={expiry} K={strike} "
                          f"price={price} vol={vol}"
                          + (f" other method={other}" if ref else ""),
                          file=sys.stderr)
            failed.append(bad)
        return failed


class SurfaceFourier(SurfaceWorkload):
    name = "surface-fourier"
    method = "fourier"
    families = ("cir", "gamma_ou")


class SurfaceClosed(SurfaceWorkload):
    name = "surface-closed"
    method = "closed"
    families = ("cir", "cir_2f")


def _price_line(lines) -> float:
    for ln in lines:
        if ln.startswith("price = "):
            return float(ln.split("=", 1)[1])
    return math.nan


class CliCommands(Workload):
    """A seeded mix of single-quote commands plus calibrate and validate."""

    name = "cli-commands"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.commands = []  # (command, manifest index, spec key)
        rng = self.rng
        for fam, kinds in CLI_METHODS.items():
            lo, hi = CLI_STRIKES[fam]
            for kind, methods in kinds.items():
                design = CLI_CAPLETS if kind == "caplet" else CLI_SWAPTIONS
                strikes = _slots(rng, lo, hi, CLI_QUOTES)
                for q, indices in enumerate(design):
                    strike = round(strikes[(5 * q) % CLI_QUOTES], 5)
                    spec = indices + (strike,)
                    if kind == "caplet":
                        extra = {"caplet.index": indices[0],
                                 "caplet.strike": strike}
                    else:
                        extra = {"swaption.start": indices[0],
                                 "swaption.end": indices[1],
                                 "swaption.strike": strike}
                    for method in methods:
                        idx = self.add_config(f"{fam}-{kind}-{q}.cfg", fam,
                                              extra, method=method)
                        self.commands.append((kind, idx, (fam, kind) + spec))
            for _ in range(CLI_CALIBRATES):
                idx = self.add_config(f"{fam}.cfg", fam, {})
                self.commands.append(("calibrate", idx, None))
            idx = self.add_config(f"{fam}.cfg", fam, {},
                                  seed=rng.choice(VALIDATE_SEEDS))
            self.commands.append(("validate", idx, None))
        rng.shuffle(self.commands)

    def ops(self, tracer=None):
        out = []
        for n, (command, idx, spec) in enumerate(self.commands):
            entry = self.manifest[idx]
            target = self.path(f"us-{n}.txt") if command == "calibrate" \
                else None
            method = entry["method"] or ""
            out.append(Op(
                f"{command} {entry['family']} {method}".rstrip(),
                lambda cfg=self.cfgs[idx], c=command, t=target:
                    _run_cli(c, cfg, t),
                collect=lambda raw, t=target:
                    (raw[0], raw[1], _read(t) if t else ""),
                meta={"command": command, "family": entry["family"],
                      "method": method, "spec": spec}))
        return out

    def gate(self, ops, outputs):
        closed = {}
        for op, out in zip(ops, outputs):
            if op.meta["method"] == "closed" and \
                    not isinstance(out, Exception) and out[0] == 0:
                closed[op.meta["spec"]] = _price_line(out[1])
        failed = []
        for op, out in zip(ops, outputs):
            ok = self._passes(op, out, closed)
            if not ok:
                print(f"gate: {op.label} {op.meta['spec']}: {out!r}",
                      file=sys.stderr)
            failed.append(0 if ok else 1)
        return failed

    @staticmethod
    def _passes(op, out, closed) -> bool:
        if isinstance(out, Exception) or out[0] != 0:
            return False
        rc, lines, text = out
        command, fam, spec = op.meta["command"], op.meta["family"], \
            op.meta["spec"]
        if command == "calibrate":
            resid = [float(ln.split("=", 1)[1]) for ln in lines
                     if ln.startswith("max residual = ")]
            return len(resid) == 1 and resid[0] <= CALIBRATION_RESIDUAL \
                and len(text.strip().splitlines()) == len(CURVE)
        if command == "validate":
            checks = lines[:-1]
            return bool(checks) and \
                all(ln.startswith("PASS ") for ln in checks) and \
                lines[-1] == f"{len(checks)}/{len(checks)} checks passed"
        price = _price_line(lines)
        if spec[1] == "caplet":
            bounds = _caplet_bounds(spec[2], spec[3])
        else:
            bounds = _swaption_bounds(spec[2], spec[3], spec[4])
        if not _within(price, *bounds):
            return False
        if op.meta["method"] == "fourier" and fam in CLOSED_GAP \
                and spec in closed:
            return _agree(price, closed[spec], fam)
        return op.meta["method"] == "closed" or fam not in CLOSED_GAP


class RiccatiOnly(Workload):
    """Riccati-only copies of the bundled drivers: calibrate, then nodes."""

    name = "riccati-only"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.nodes = {}
        for fam in RICCATI_FAMILIES:
            self.add_config(f"{fam}.cfg", fam, {})
            for t in RICCATI_HORIZONS:
                re = [self.rng.uniform(*RICCATI_RE)
                      for _ in range(RICCATI_NODES)]
                im = _slots(self.rng, 0.0, RICCATI_IM_MAX, RICCATI_NODES)
                self.nodes[fam, t] = (np.array(re) + 1j * np.array(im))[:, None]

    @staticmethod
    def riccati_copy(process, tracer=None):
        """RiccatiProcess with the driver's F, R and domain, no closed form.

        With a tracer, F is wrapped to count right-hand-side evaluations.
        """
        rhs = process.riccati_rhs()
        if tracer is not None:
            F = rhs.F

            def counted_F(u):
                tracer.count_rhs()
                return F(u)

            rhs = affine_core.RiccatiRhs(counted_F, rhs.R, dim=rhs.dim)
        return processes.RiccatiProcess(rhs, process.domain_sup,
                                        float(process.initial_state()[0]))

    def ops(self, tracer=None):
        out = []
        for i, entry in enumerate(self.manifest):
            fam, cfg = entry["family"], self.cfgs[i]
            proc = self.riccati_copy(cfg.process, tracer)
            out.append(Op(
                f"fit riccati-{fam}",
                lambda cfg=cfg, proc=proc: model.fit_term_structure(
                    cfg.tenor, proc, x0=cfg.x0, tol=cfg.calibration_tol),
                cells=0, collect=lambda m: np.array(m.us),
                meta={"cfg": cfg, "kind": "fit"}))
            for t in RICCATI_HORIZONS:
                u = self.nodes[fam, t]
                out.append(Op(
                    f"phi_psi_batch riccati-{fam} t={t}",
                    lambda proc=proc, t=t, u=u: model.phi_psi_batch(proc, t, u),
                    units=len(u), cells=len(u),
                    meta={"cfg": cfg, "kind": "batch", "t": t, "u": u}))
        return out

    def gate(self, ops, outputs):
        failed = []
        for op, out in zip(ops, outputs):
            if isinstance(out, Exception):
                failed.append(op.units)
                continue
            cfg = op.meta["cfg"]
            if op.meta["kind"] == "fit":
                ref = model.fit_term_structure(cfg.tenor, cfg.process,
                                               x0=cfg.x0,
                                               tol=cfg.calibration_tol).us
                failed.append(0 if out.shape == ref.shape and np.max(
                    np.abs(out - ref)) <= RICCATI_TOL else 1)
                continue
            phi, psi = out
            ref_phi, ref_psi = model.phi_psi_batch(cfg.process,
                                                   op.meta["t"],
                                                   op.meta["u"])
            gap = np.maximum(np.abs(phi - ref_phi),
                             np.max(np.abs(psi - ref_psi), axis=-1))
            failed.append(int(np.count_nonzero(~(gap <= RICCATI_TOL))))
        return failed


WORKLOADS = {w.name: w for w in (SurfaceFourier, SurfaceClosed, CliCommands,
                                 RiccatiOnly)}
