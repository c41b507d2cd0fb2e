"""Outside-in tracing of the ``affine_libor`` layers.

:class:`Tracer` replaces each traced library function by a wrapper at every
place that holds a reference to it: the defining module, each module that
imported it by name (``pricing.semi_infinite_oscillatory``,
``distributions.adaptive_gauss_kronrod``, ``cli.fit_term_structure``, ...)
and the package namespace.  Methods are wrapped on their class.  The
library's source is never edited, and :meth:`Tracer.uninstall` puts every
original back.

Every wrapped call records one span (name, start, end, parent span,
operation id) in flat in-memory arrays; nothing is written until the
benchmark ends.  Work counts (integrand nodes, transform nodes, series
terms, paths, ...) are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from array import array

import numpy as np

# (module, attribute, span group).  The group names the per-layer metric
# family; its first component is the layer (the module of src/affine_libor).
TRACED = [
    ("cli", "RunConfig.from_file", "cli.load"),
    ("cli", "load_tenor_csv", "cli.load_tenor"),
    ("cli", "run_command", "cli.run_command"),
    ("model", "fit_term_structure", "model.fit"),
    ("model", "phi_psi_batch", "model.phi_psi_batch"),
    ("processes", "CirParams.phi_psi", "processes.phi_psi"),
    ("processes", "GammaOuParams.phi_psi", "processes.phi_psi"),
    ("processes", "LevySubordinatorSpec.phi_psi", "processes.phi_psi"),
    ("processes", "ProductProcess.phi_psi", "processes.phi_psi"),
    ("affine_core", "transform", "affine_core.transform"),
    ("affine_core", "riccati_solve", "affine_core.riccati"),
    ("quadrature", "semi_infinite_oscillatory", "quadrature.soi"),
    ("quadrature", "adaptive_gauss_kronrod", "quadrature.gk"),
    ("distributions", "ncchi2_cdf", "distributions.ncchi2"),
    ("distributions", "ncchi2_sf", "distributions.ncchi2"),
    ("distributions", "chisq_mix_cdf", "distributions.chisq_mix"),
    ("distributions", "chisq_mix_sf", "distributions.chisq_mix"),
    ("pricing", "caplet_fourier", "pricing.caplet"),
    ("pricing", "floorlet_fourier", "pricing.caplet"),
    ("pricing", "caplet_cir_closed", "pricing.caplet"),
    ("pricing", "floorlet_cir_closed", "pricing.caplet"),
    ("pricing", "caplet_cir2f_closed", "pricing.caplet"),
    ("pricing", "swaption_fourier", "pricing.swaption"),
    ("pricing", "swaption_cir_closed", "pricing.swaption"),
    ("pricing", "swaption_root", "pricing.swaption_root"),
    ("pricing", "black76_implied_vol", "pricing.implied_vol"),
    ("pricing", "vol_surface", "pricing.surface"),
    ("montecarlo", "simulate_process", "montecarlo.simulate"),
    ("montecarlo", "simulate_cir", "montecarlo.simulate"),
    ("montecarlo", "simulate_gamma_ou", "montecarlo.simulate"),
    ("montecarlo", "forward_measure_weights", "montecarlo.weights"),
    ("montecarlo", "martingale_check", "montecarlo.check"),
    ("montecarlo", "mc_price", "montecarlo.price"),
]
# Special functions the Poisson series evaluates once per term and point;
# counted (no span) where distributions imported them.
SERIES_FUNCTIONS = ("gammainc", "gammaincc")
INTEGRAND = "quadrature.integrand"


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.groups: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.outer = array("b")
        self.work = array("d")
        self.start = array("d")
        self.end = array("d")
        self.op_labels: list[str] = []
        self.pass_starts: list[int] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._group_depth: dict[str, int] = {}
        self._layer_depth: dict[str, int] = {}
        self._current_op = -1
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------

    def begin_op(self, label: str):
        """Start a new operation; spans until the next call share its id."""
        self.op_labels.append(label)
        self._current_op = len(self.op_labels) - 1

    def count(self, key: str, n: float = 1.0):
        self.counters[key] = self.counters.get(key, 0.0) + n

    def active(self, group: str) -> bool:
        return self._group_depth.get(group, 0) > 0

    def layer_active(self, layer: str) -> bool:
        return self._layer_depth.get(layer, 0) > 0

    def _id(self, name: str, group: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        return idx

    def _open(self, name_id: int, group: str, layer: str) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._current_op)
        depth = self._group_depth.get(group, 0)
        self.outer.append(depth == 0)
        self.work.append(0.0)
        self.end.append(0.0)
        self._group_depth[group] = depth + 1
        self._layer_depth[layer] = self._layer_depth.get(layer, 0) + 1
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, group: str, layer: str):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._group_depth[group] -= 1
        self._layer_depth[layer] -= 1

    def _span(self, fn, name: str, group: str, enter=None, leave=None):
        """Wrap ``fn``: one span per call, plus optional count hooks.

        ``enter(idx, args)`` may return replacement positional arguments;
        ``leave(idx, args, result)`` sees the result of a successful call.
        """
        name_id = self._id(name, group)
        layer = group.split(".")[0]
        error_base = self.package.AffineLiborError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id, group, layer)
            try:
                if enter is not None:
                    args = enter(idx, args) or args
                result = fn(*args, **kwargs)
            except error_base:
                if self._layer_depth[layer] == 1:
                    self.count(f"{layer}.errors")
                raise
            finally:
                self._close(idx, group, layer)
            if leave is not None:
                leave(idx, args, result)
            return result

        return wrapper

    # -- hooks -----------------------------------------------------------

    def _integrand(self, f):
        """Wrap a quadrature integrand: span per call, nodes counted."""
        integrand = self._span(f, INTEGRAND, INTEGRAND,
                               enter=self._enter_integrand)
        integrand.traced = True
        return integrand

    def _enter_integrand(self, idx, args):
        n = float(np.size(args[0]))
        self.work[idx] = n
        self.count("quadrature.integrand_calls")
        self.count("quadrature.nodes", n)
        if self.active("quadrature.gk"):
            self.count("quadrature.gk_nodes", n)
        if self.active("distributions.chisq_mix"):
            self.count("distributions.chisq_mix.nodes", n)

    def _enter_quadrature(self, idx, args):
        f = args[0]
        if getattr(f, "traced", False):
            return None
        return (self._integrand(f),) + tuple(args[1:])

    def _enter_phi_psi_batch(self, idx, args):
        process, u_batch = args[0], args[2]
        n = float(np.size(u_batch) // process.dim)
        self.work[idx] = n
        self.count("model.phi_psi_batch.nodes", n)
        if (self.active("pricing.caplet") or self.active("pricing.swaption")) \
                and not self.layer_active("quadrature"):
            self.count("pricing.damping.nodes", n)

    def _enter_transform(self, idx, args):
        if self.active("model.fit"):
            self.count("model.fit.transform_calls")

    def _enter_ncchi2(self, idx, args):
        if self.outer[idx]:
            n = float(np.size(args[0]))
            self.work[idx] = n
            self.count("distributions.ncchi2.points", n)

    def _enter_simulate(self, idx, args):
        if self.outer[idx]:
            self.work[idx] = float(args[2])
            self.count("montecarlo.simulate.paths", float(args[2]))

    def _leave_weights(self, idx, args, w):
        w = np.asarray(w, dtype=float)
        sq = float(np.dot(w, w))
        ess = float(w.sum()) ** 2 / (w.size * sq) if sq > 0.0 else 0.0
        key = "montecarlo.weights.ess_ratio_min"
        self.counters[key] = min(self.counters.get(key, math.inf), ess)

    def _leave_surface(self, idx, args, cells):
        self.count("pricing.cells_failed",
                   sum(1 for c in cells if c.error is not None))
        self.count("pricing.cells_zero_vol",
                   sum(1 for c in cells if c.implied_vol == 0.0))

    def _series(self, fn):
        def counted(a, x):
            if self.active("distributions.ncchi2"):
                self.count("distributions.ncchi2.terms",
                           float(np.broadcast(a, x).size))
            return fn(a, x)

        return counted

    def count_rhs(self):
        """One Riccati right-hand-side evaluation (the benchmark's wrappers)."""
        if self.active("affine_core.riccati"):
            self.count("affine_core.riccati.rhs_evals")
            self.work[self._stack[-1]] += 1.0

    # -- installation ----------------------------------------------------

    def _hooks(self, group):
        return {
            "quadrature.soi": (self._enter_quadrature, None),
            "quadrature.gk": (self._enter_quadrature, None),
            "model.phi_psi_batch": (self._enter_phi_psi_batch, None),
            "affine_core.transform": (self._enter_transform, None),
            "distributions.ncchi2": (self._enter_ncchi2, None),
            "montecarlo.simulate": (self._enter_simulate, None),
            "montecarlo.weights": (None, self._leave_weights),
            "pricing.surface": (None, self._leave_surface),
        }.get(group, (None, None))

    def _replace_everywhere(self, original, replacement):
        """Point every library module's name for ``original`` at the wrapper."""
        prefix = self.package.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix
                                   or modname.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self):
        pkg = self.package
        for modname, attr, group in TRACED:
            mod = getattr(pkg, modname)
            name = f"{modname}.{attr}"
            enter, leave = self._hooks(group)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        self._span(raw.__func__, name, group, enter, leave))
                else:
                    wrapped = self._span(raw, name, group, enter, leave)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
            else:
                original = getattr(mod, attr)
                self._replace_everywhere(
                    original, self._span(original, name, group, enter, leave))
        for fname in SERIES_FUNCTIONS:
            original = getattr(pkg.distributions, fname)
            self._replace_everywhere(original, self._series(original))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reduction -------------------------------------------------------

    def mark(self):
        """Start a measurement window: span position and counter snapshot.

        Running minima restart with the window.
        """
        self.pass_starts.append(len(self.op_labels))
        for key in [k for k in self.counters if k.endswith("_min")]:
            del self.counters[key]
        return len(self.start), dict(self.counters)

    def group_stats(self, since: int = 0):
        """Per group: outer calls, inclusive seconds, self seconds."""
        n = len(self.start)
        if n == since:
            return {}
        start = np.frombuffer(self.start, dtype=float)[since:n]
        end = np.frombuffer(self.end, dtype=float)[since:n]
        parent = np.frombuffer(self.parent, dtype=np.int64)[since:n] - since
        outer = np.frombuffer(self.outer, dtype=np.int8)[since:n] > 0
        names = np.frombuffer(self.name_id, dtype=np.uint16)[since:n]
        dur = end - start
        child = np.zeros(n - since)
        inside = parent >= 0
        np.add.at(child, parent[inside], dur[inside])
        own = dur - child
        group_of = np.array([self.groups.index(g) for g in self.groups])
        gids = group_of[names]
        out = {}
        for gid in np.unique(gids):
            sel = gids == gid
            out[self.groups[gid]] = {
                "calls": int(np.count_nonzero(sel & outer)),
                "s": float(dur[sel & outer].sum()),
                "self_s": float(own[sel].sum()),
            }
        return out

    def counters_since(self, before: dict) -> dict:
        out = {}
        for key, value in self.counters.items():
            if key.endswith("_min"):
                out[key] = value
            else:
                out[key] = value - before.get(key, 0.0)
        return out

    def dump(self, path: str, meta: dict):
        """Write every recorded span and the operation labels as JSON."""
        doc = dict(meta)
        doc["names"] = self.names
        doc["groups"] = self.groups
        doc["ops"] = self.op_labels
        doc["passes"] = self.pass_starts
        doc["columns"] = ["name", "parent", "op", "start", "end", "work"]
        doc["spans"] = list(zip(self.name_id, self.parent, self.op,
                                self.start, self.end, self.work))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(stats: dict, counters: dict) -> dict:
    """The per-layer metrics of one traced pass (names as in BENCHMARK.json)."""

    def g(group, key):
        return stats.get(group, {}).get(key, 0.0)

    def c(key):
        return counters.get(key, 0.0)

    solves = g("affine_core.riccati", "calls")
    priced = g("pricing.caplet", "calls") + g("pricing.swaption", "calls")
    ess = c("montecarlo.weights.ess_ratio_min")
    return {
        "cli.run_command.calls": g("cli.run_command", "calls"),
        "model.fit.calls": g("model.fit", "calls"),
        "model.fit.s": g("model.fit", "s"),
        "model.fit.transform_calls": c("model.fit.transform_calls"),
        "model.phi_psi_batch.calls": g("model.phi_psi_batch", "calls"),
        "model.phi_psi_batch.nodes": c("model.phi_psi_batch.nodes"),
        "model.phi_psi_batch.self_s": g("model.phi_psi_batch", "self_s"),
        "processes.phi_psi.calls": g("processes.phi_psi", "calls"),
        "processes.phi_psi.s": g("processes.phi_psi", "s"),
        "affine_core.transform.calls": g("affine_core.transform", "calls"),
        "affine_core.transform.self_s": g("affine_core.transform", "self_s"),
        "affine_core.riccati.solves": solves,
        "affine_core.riccati.rhs_evals": c("affine_core.riccati.rhs_evals"),
        "affine_core.riccati.steps":
            (c("affine_core.riccati.rhs_evals") - solves) / 6.0
            if solves else 0.0,
        "affine_core.riccati.s": g("affine_core.riccati", "s"),
        "affine_core.errors": c("affine_core.errors"),
        "quadrature.soi.calls": g("quadrature.soi", "calls"),
        "quadrature.gk.calls": g("quadrature.gk", "calls"),
        "quadrature.integrand_calls": c("quadrature.integrand_calls"),
        "quadrature.nodes": c("quadrature.nodes"),
        "quadrature.panels": c("quadrature.gk_nodes") / 15.0,
        "quadrature.self_s": g("quadrature.soi", "self_s")
            + g("quadrature.gk", "self_s"),
        "quadrature.nodes_per_cell":
            c("quadrature.nodes") / priced if priced else 0.0,
        "distributions.ncchi2.calls": g("distributions.ncchi2", "calls"),
        "distributions.ncchi2.points": c("distributions.ncchi2.points"),
        "distributions.ncchi2.terms": c("distributions.ncchi2.terms"),
        "distributions.ncchi2.s": g("distributions.ncchi2", "s"),
        "distributions.chisq_mix.calls": g("distributions.chisq_mix", "calls"),
        "distributions.chisq_mix.self_s":
            g("distributions.chisq_mix", "self_s"),
        "distributions.chisq_mix.nodes": c("distributions.chisq_mix.nodes"),
        "pricing.caplet.calls": g("pricing.caplet", "calls"),
        "pricing.caplet.self_s": g("pricing.caplet", "self_s"),
        "pricing.damping.nodes": c("pricing.damping.nodes"),
        "pricing.swaption.calls": g("pricing.swaption", "calls"),
        "pricing.swaption.self_s": g("pricing.swaption", "self_s"),
        "pricing.swaption_root.calls": g("pricing.swaption_root", "calls"),
        "pricing.implied_vol.calls": g("pricing.implied_vol", "calls"),
        "pricing.implied_vol.s": g("pricing.implied_vol", "s"),
        "pricing.cells_failed": c("pricing.cells_failed"),
        "pricing.cells_zero_vol": c("pricing.cells_zero_vol"),
        "montecarlo.simulate.calls": g("montecarlo.simulate", "calls"),
        "montecarlo.simulate.paths": c("montecarlo.simulate.paths"),
        "montecarlo.simulate.s": g("montecarlo.simulate", "s"),
        "montecarlo.weights.calls": g("montecarlo.weights", "calls"),
        "montecarlo.weights.s": g("montecarlo.weights", "s"),
        "montecarlo.weights.ess_ratio_min": 0.0 if math.isinf(ess) else ess,
        "montecarlo.check.calls": g("montecarlo.check", "calls"),
    }
