"""Rows of the ROADMAP "Baseline" table, computed from traced runs.

    python3 bench/baseline.py bench/_work/*/trace.json

Each trace file is written by ``bench/run.py --trace 1``.  Times are
span durations of the traced pass, so they include the tracing overhead
that the run reports as ``trace.overhead_s``; work counts are exact.
"""

from __future__ import annotations

import json
import statistics
import sys

import numpy as np


class Trace:
    """Spans of one traced run, with lookups by function and operation."""

    def __init__(self, path: str):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        self.workload = doc["workload"]
        self.names = doc["names"]
        self.ops = doc["ops"]
        cols = np.array(doc["spans"], dtype=float).reshape(-1, 6)
        self.name = cols[:, 0].astype(int)
        self.parent = cols[:, 1].astype(int)
        self.op = cols[:, 2].astype(int)
        self.dur = cols[:, 4] - cols[:, 3]
        self.work = cols[:, 5]
        # Only the first traced pass.
        starts = doc["passes"] + [len(self.ops)]
        self.first_pass = (self.op >= starts[0]) & (self.op < starts[1])

    def ids(self, *names):
        return [self.names.index(n) for n in names if n in self.names]

    def select(self, names, op_filter=lambda label: True):
        ids = self.ids(*names)
        ok = np.array([op_filter(label) for label in self.ops] + [False])
        return np.nonzero(np.isin(self.name, ids) & self.first_pass
                          & ok[self.op])[0]

    def below(self, spans, names):
        """Per span in ``spans``: (count, summed work) of descendants named."""
        ids = set(self.ids(*names))
        index = {int(s): k for k, s in enumerate(spans)}
        count = np.zeros(len(spans))
        work = np.zeros(len(spans))
        for i in np.nonzero(np.isin(self.name, list(ids)))[0]:
            p = self.parent[i]
            while p >= 0 and p not in index:
                p = self.parent[p]
            if p >= 0:
                count[index[p]] += 1
                work[index[p]] += self.work[i]
        return count, work


def family(label: str) -> str:
    return label.split()[1] if len(label.split()) > 1 else ""


def _ms(values) -> str:
    values = [1e3 * v for v in values]
    if not values:
        return "-"
    lo, mid, hi = min(values), statistics.median(values), max(values)
    return f"{mid:.3g} ms" if hi - lo < 0.05 * mid else \
        f"{mid:.3g} ms ({lo:.3g}-{hi:.3g})"


def _range(values) -> str:
    values = [int(round(v)) for v in values]
    return f"{min(values)}-{max(values)}" if values else "-"


def rows(traces: dict) -> list[tuple[str, str, str]]:
    out = []
    cli = traces.get("cli-commands")
    if cli is not None:
        times = []
        for fam in ("cir", "gamma_ou", "cir_2f"):
            sel = cli.select(["model.fit_term_structure"],
                             lambda lb, f=fam: family(lb) == f)
            times.append(_ms(cli.dur[sel]))
        out.append(("calibrate (CIR / gamma-OU / CIR-2F)", " / ".join(times),
                    "every command recalibrates"))
        sel = cli.select(["affine_core.transform"],
                         lambda lb: family(lb) == "cir")
        out.append(("`transform`, CIR closed form", _ms(cli.dur[sel]),
                    f"{len(sel)} calls"))
        for fam in ("cir", "gamma_ou", "cir_2f"):
            for fn in ("caplet_cir_closed", "caplet_cir2f_closed",
                       "caplet_fourier"):
                sel = cli.select([f"pricing.{fn}"],
                                 lambda lb, f=fam: family(lb) == f
                                 and lb.startswith("caplet"))
                if not len(sel):
                    continue
                calls, nodes = cli.below(sel, ["quadrature.integrand"])
                work = f"{_range(nodes)} nodes in {_range(calls)} " \
                    "integrand calls" if calls.any() else ""
                out.append((f"`{fn}` ({fam})", _ms(cli.dur[sel]), work))
        for fn in ("swaption_cir_closed", "swaption_fourier"):
            for fam in ("cir", "gamma_ou"):
                sel = cli.select([f"pricing.{fn}"],
                                 lambda lb, f=fam: family(lb) == f)
                if len(sel):
                    out.append((f"`{fn}` ({fam})", _ms(cli.dur[sel]), ""))
        sel = cli.select(["montecarlo.mc_price"])
        if len(sel):
            paths = cli.below(sel, ["montecarlo.simulate_process"])[1]
            out.append(("`mc_caplet` (validate oracle)", _ms(cli.dur[sel]),
                        f"{_range(paths)} paths"))
    for name in ("surface-fourier", "surface-closed"):
        tr = traces.get(name)
        if tr is None:
            continue
        sel = tr.select(["cli.run_command"])
        for i in sel:
            cells = tr.below(np.array([i]), ["pricing.caplet_fourier",
                                             "pricing.caplet_cir_closed",
                                             "pricing.caplet_cir2f_closed"])
            nodes = tr.below(np.array([i]), ["quadrature.integrand"])[1]
            out.append((f"`{tr.ops[tr.op[i]]}`", _ms([tr.dur[i]]),
                        f"{int(cells[0][0])} cells, "
                        f"{int(nodes[0])} integrand nodes"))
    closed = traces.get("surface-closed")
    if closed is not None:
        sel = closed.select(["distributions.chisq_mix_sf"])
        nodes = closed.below(sel, ["quadrature.integrand"])[1]
        calls = closed.below(sel, ["quadrature.adaptive_gauss_kronrod"])[0]
        out.append(("`chisq_mix_sf`, 2 components (per point)",
                    _ms(closed.dur[sel]),
                    f"{len(sel)} points; {int(calls.sum())} GK calls, "
                    f"{int(nodes.sum() / 15)} panels, "
                    f"{int(nodes.sum())} nodes"))
        sel = closed.select(["distributions.ncchi2_sf"])
        out.append(("`ncchi2_sf` (per point)", _ms(closed.dur[sel]),
                    f"{len(sel)} points"))
    ric = traces.get("riccati-only")
    if ric is not None:
        for fam in ("cir", "gamma_ou"):
            sel = ric.select(["affine_core.riccati_solve"],
                             lambda lb, f=fam: lb.startswith("phi_psi_batch")
                             and family(lb) == f"riccati-{f}")
            steps = (ric.work[sel] - 1) / 6.0
            out.append((f"`transform` via `riccati_solve` ({fam}, per point)",
                        _ms(ric.dur[sel]), f"{_range(steps)} steps"))
            sel = ric.select(["model.fit_term_structure"],
                             lambda lb, f=fam: family(lb) == f"riccati-{f}")
            solves, _ = ric.below(sel, ["affine_core.riccati_solve"])
            out.append((f"calibrate, Riccati-only {fam}", _ms(ric.dur[sel]),
                        f"{int(solves.sum())} solves"))
    return out


def main(paths) -> int:
    traces = {}
    for path in paths:
        tr = Trace(path)
        traces[tr.workload] = tr
    print("| layer / command | time | work |")
    print("| --- | --- | --- |")
    for label, time_text, work in rows(traces):
        print(f"| {label} | {time_text} | {work} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
