"""Adaptive Gauss-Kronrod quadrature on vectorised, vector-valued integrands.

Two entry points:

* :func:`adaptive_gauss_kronrod` -- finite interval, cut at optional
  initial ``breakpoints`` and refined in rounds with the classic 7-15
  pair.
* :func:`semi_infinite_oscillatory` -- integrals of the form
  ``int_0^inf f(v) dv`` where ``f`` eventually behaves like a slowly
  varying amplitude times ``exp(i*omega*v)``.  The integration range is
  doubled outward and the remaining tail is closed with a two-term
  integration-by-parts asymptotic whose consistency across one doubling
  serves as the error estimate.  Each component stops doubling as soon
  as its own tail is consistent.  The head [0, V] starts from geometric
  panels cut at V/64, ..., V/2, and each new segment starts from panels
  one period of the fastest unsettled oscillation wide.  Every step is
  one fused integrand call: the starting panels plus the three abscissae
  of the tail probe at the step's right end.

Integrands take a 1-d ``ndarray`` of n abscissae and return either n
values (real or complex) or an ``(n, m)`` array: m integrands that share
their abscissae, such as one Fourier integrand per strike sharing one
transform evaluation per node.  A scalar integrand is a batch of one
component; results have the integrand's shape (a scalar, or m values and
m error estimates).  Component j meets its own budget
``max(abs_tol_j, rel_tol * |I_j|)``.

Refinement runs only when the first evaluation of the starting panels
misses a component's budget, and then in rounds.  For every component
that misses its budget, the panels are sorted by that component's
7-vs-15 discrepancy and the shortest prefix whose summed discrepancy
covers the excess is marked; the union of the marked sets is halved with
one call to the integrand.  A component whose prefix holds a panel
already at floating-point resolution stops refining, and a panel cap
bounds the work; either way the reported error is the summed
discrepancy, so the caller can see that the budget was missed.  Initial
``breakpoints`` help where a wide panel's discrepancy misjudges its
error: features much narrower than the interval, or a panel holding many
periods of an oscillation, where the aliased 7- and 15-point rules can
agree while both are wrong.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import InvalidParameter

# 7-15 Gauss-Kronrod pair on [-1, 1]: positive abscissae in descending
# order; odd-indexed entries are the embedded Gauss-7 nodes.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# Full 15-point symmetric rule, nodes ascending.
_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[-2::-1]])
_WK_FULL = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]])
_WG_FULL = np.zeros(15)
_WG_FULL[1:14:2] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[-2::-1]])

# Edges of the head's starting panels as fractions of its width: 0, then
# geometric cuts 1/64, ..., 1/2, then 1.
_HEAD_EDGES = np.concatenate([[0.0], 0.5 ** np.arange(6.0, -1.0, -1.0)])


def _components(values, n: int) -> np.ndarray:
    """Integrand output at n abscissae as an (n, m) array."""
    return np.asarray(values).reshape(n, -1)


def _panels_eval(f: Callable, lows: np.ndarray, highs: np.ndarray,
                 extra=()):
    """GK15 values and 7-vs-15 discrepancies, shape (panels, components),
    on a batch of panels with one call to f; plus whether f is
    vector-valued and f at the ``extra`` abscissae, which ride along the
    same call."""
    mid = 0.5 * (lows + highs)
    half = 0.5 * (highs - lows)
    pts = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    n = pts.size
    if len(extra):
        pts = np.concatenate([pts, extra])
    raw = f(pts)
    comps = _components(raw, pts.size)
    vals = comps[:n].reshape(lows.size, 15, -1)
    k15 = half[:, None] * (_WK_FULL @ vals)
    g7 = half[:, None] * (_WG_FULL @ vals)
    return k15, np.abs(k15 - g7), np.ndim(raw) == 2, comps[n:]


def _covering_split(errs: np.ndarray, excess: np.ndarray,
                    splittable: np.ndarray) -> np.ndarray:
    """Mask of panels to halve in one refinement round.

    For each component with positive excess, the shortest prefix of its
    panels by descending discrepancy whose summed discrepancy covers the
    excess; a prefix holding an unsplittable panel is dropped, since that
    component cannot improve.
    """
    mark = np.zeros(errs.shape[0], dtype=bool)
    short = np.flatnonzero(excess > 0.0)
    order = np.argsort(-errs[:, short], axis=0, kind="stable")
    covered = np.cumsum(np.take_along_axis(errs[:, short], order, axis=0),
                        axis=0)
    # prefix row i is chosen while the panels before it leave excess open
    chosen = np.vstack([np.ones((1, short.size), dtype=bool),
                        covered[:-1] < excess[short]])
    able = np.all(splittable[order] | ~chosen, axis=0)
    mark[order[chosen & able]] = True
    return mark


def _refined(f, lo, hi, vals, errs, abs_tol, rel_tol, max_panels):
    """Sum of the evaluated panels, refined by the covering rule of the
    module docstring until every component meets
    ``max(abs_tol, rel_tol * |value|)`` or the panel cap is reached;
    returns (values, summed discrepancies), one per component."""
    while True:
        total, total_err = vals.sum(axis=0), errs.sum(axis=0)
        budget = np.maximum(abs_tol, rel_tol * np.abs(total))
        excess = total_err - budget
        room = max_panels - lo.size
        if not (excess > 0.0).any() or room <= 0:
            return total, total_err
        mid = 0.5 * (lo + hi)
        split = _covering_split(errs, excess, (mid > lo) & (mid < hi))
        idx = np.flatnonzero(split)
        if idx.size == 0:
            return total, total_err
        if idx.size > room:  # keep the panels furthest over budget
            ratio = errs[idx] / np.maximum(budget, np.finfo(float).tiny)
            idx = idx[np.argsort(-ratio.max(axis=1), kind="stable")[:room]]
        keep = np.ones(lo.size, dtype=bool)
        keep[idx] = False
        new_lo = np.concatenate([lo[idx], mid[idx]])
        new_hi = np.concatenate([mid[idx], hi[idx]])
        v2, e2, _, _ = _panels_eval(f, new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[keep], v2])
        errs = np.concatenate([errs[keep], e2])


def adaptive_gauss_kronrod(f, a: float, b: float, abs_tol=0.0,
                           rel_tol: float = 1e-10, max_panels: int = 1024,
                           breakpoints=()):
    """Integrate f on [a, b]; returns (value, error_estimate).

    Starts from the panels between ``a``, the ``breakpoints`` inside
    (a, b) and ``b``, then, only if that first evaluation misses a
    budget, refines by the covering rule of the module docstring until
    every component's summed discrepancy meets
    ``max(abs_tol, rel_tol * |value|)`` (``abs_tol`` may be one value per
    component) or the panel budget runs out.  The returned error estimate
    is that summed discrepancy, a deliberately conservative figure.
    """
    inner = np.sort(np.asarray(breakpoints, dtype=float))
    edges = np.concatenate([[a], inner[(inner > a) & (inner < b)], [b]])
    lo, hi = edges[:-1], edges[1:]
    vals, errs, vector, _ = _panels_eval(f, lo, hi)
    total, total_err = _refined(f, lo, hi, vals, errs, abs_tol, rel_tol,
                                max_panels)
    if vector:
        return total, total_err
    return total[0], total_err[0]


# Largest phase step of the central difference that measures a tail's
# frequency: it is off by (omega*h)^2/6 relative, at most 7e-7.
_PHASE_STEP = 2e-3


def _probe_step(v: float, omega) -> float:
    """Difference step for the tail probe at v: 1e-3 max(v, 1), or, where
    that would turn the fastest phase in ``omega`` (measured at the last
    probe) by more than ``_PHASE_STEP``, the step turning it by half of
    that; a steady phase then needs no re-probe."""
    step = 1e-3 * max(v, 1.0)
    fastest = float(np.max(omega, initial=0.0))
    if fastest * step > _PHASE_STEP:
        step = 0.5 * _PHASE_STEP / fastest
    return step


def _tail_by_parts(f, v: float, step: float, probed):
    """Two-term integration-by-parts estimate of ``int_v^inf f`` and the
    frequency |omega_j| of each component at v, both as arrays.

    Writes each component f_j = exp(i*omega_j*u) * h_j(u) with the
    instantaneous frequency omega_j = Im(f_j'/f_j) measured at u = v, which
    makes h_j locally non-oscillatory.  The central difference starts from
    ``step``, on the values ``probed`` of f at v - step, v, v + step, and
    is shrunk (re-evaluating f) until it turns the fastest phase by at
    most ``_PHASE_STEP``, since the error of omega enters the tail
    relative.  Integration by parts is only trustworthy when the phase
    turns much faster than the amplitude decays (1/omega^2 blows up
    otherwise); slow-phase tails fall back to the power-law closure
    int_v^inf A u^-p du = f(v) v / (p - 1), which is exact for a pure
    power integrand.
    """
    for attempt in range(8):
        if attempt:
            probed = f(np.array([v - step, v, v + step]))
        c_m, c_0, c_p = _components(probed, 3).astype(complex)
        live = np.abs(c_0) >= 1e-300
        c_0 = np.where(live, c_0, 1.0)
        deriv = (c_p - c_m) / (2.0 * step)
        ratio = deriv / c_0  # f'/f
        omega = np.where(live, np.imag(ratio), 0.0)
        fastest = float(np.max(np.abs(omega)))
        if fastest * step <= _PHASE_STEP:
            break
        step = 0.5 * _PHASE_STEP / fastest
    p = -np.real(ratio) * v
    power = c_0 * v / (np.clip(p, 1.5, 16.0) - 1.0)
    safe = np.where(omega != 0.0, omega, 1.0)
    parts = 1j * c_0 / safe - (deriv - 1j * safe * c_0) / safe ** 2
    slow = np.abs(omega) * v <= 10.0 * np.maximum(p, 1.0)
    return np.where(live, np.where(slow, power, parts), 0.0), np.abs(omega)


def _fused_step(f, edges, v: float, step: float, abs_tol, rel_tol: float,
                max_panels: int):
    """Integral of f over the panels between ``edges`` and f at the tail
    probe v - step, v, v + step, all in one call to f; the panels are
    refined (by :func:`_refined`) only where that call misses a budget.
    Returns (values, error estimates, probe values, whether f is
    vector-valued)."""
    lo, hi = edges[:-1], edges[1:]
    vals, errs, vector, probed = _panels_eval(
        f, lo, hi, np.array([v - step, v, v + step]))
    value, err = _refined(f, lo, hi, vals, errs, abs_tol, rel_tol,
                          max_panels)
    return value, err, probed, vector


def semi_infinite_oscillatory(f, initial_width: float = 64.0,
                              abs_tol: float = 0.0, rel_tol: float = 1e-9,
                              max_doublings: int = 26,
                              max_panels: int = 512):
    """Integrate ``f`` on [0, inf); returns (value, error_estimate).

    The head [0, V] starts from the geometric panels cut at V/64, V/32,
    ..., V/2, which follow a transform that varies fastest near the
    origin; then V is doubled.  Each step -- the head and every doubling
    -- is one fused integrand call that evaluates the step's starting
    panels together with the tail probe at its right end, and refines
    its panels (by the covering rule of the module docstring) only when
    that call misses a component's budget.  Each component settles on
    its own: once the tail closed by :func:`_tail_by_parts` is consistent
    across one doubling to within half its error budget, its value,
    error and tail are fixed, and later segments give it an infinite
    absolute tolerance, so it no longer drives refinement; doubling stops
    when every component has settled.  Segment [V, 2V] starts from panels
    one period wide at the fastest unsettled frequency measured at V (at
    most ``max_panels // 2``), so that no starting panel aliases the
    oscillation, and the difference step of its probe comes from that
    frequency too, so a steady phase costs no probe-only call after the
    head.  The reported error is quadrature error plus the consistency
    gap at settling, so a caller can always judge whether the target was
    met.

    Raises
    ------
    InvalidParameter
        if ``initial_width`` is not a finite positive number.
    """
    v = float(initial_width)
    if not 0.0 < v < math.inf:
        raise InvalidParameter(
            f"initial width must be finite and positive, got {v}")
    step = _probe_step(v, ())
    total, qerr, probed, vector = _fused_step(
        f, v * _HEAD_EDGES, v, step, abs_tol * 0.1, rel_tol * 0.1,
        max_panels)
    tail, omega = _tail_by_parts(f, v, step, probed)
    value, err = total + tail, np.full(total.shape, np.inf)
    gap = err
    unsettled = np.ones(total.shape, dtype=bool)
    for _ in range(max_doublings):
        budget = np.maximum(abs_tol, rel_tol * np.abs(total + tail))
        fastest = np.max(omega, where=unsettled, initial=0.0)
        n = max(1, int(np.ceil(np.fmin(fastest * v / (2.0 * np.pi),
                                       max_panels // 2))))
        edges = v + (v / n) * np.arange(n + 1.0)
        edges[-1] = 2.0 * v  # v + n * (v / n) can miss 2v by an ulp
        step = _probe_step(2.0 * v, omega)
        # a component can take a dozen doublings to settle, so each
        # segment may spend a twentieth of its budget
        seg, serr, probed, _ = _fused_step(
            f, edges, 2.0 * v, step,
            np.where(unsettled, budget * 0.05, np.inf), rel_tol * 0.1,
            max_panels)
        tail_next, omega = _tail_by_parts(f, 2.0 * v, step, probed)
        gap = np.abs(tail - (seg + tail_next))
        total = total + seg
        qerr = qerr + serr
        v *= 2.0
        tail = tail_next
        settled = unsettled & (gap <= 0.5 * budget)
        value = np.where(settled, total + tail, value)
        err = np.where(settled, qerr + gap, err)
        unsettled &= ~settled
        if not unsettled.any():
            break
    value = np.where(unsettled, total + tail, value)
    err = np.where(unsettled, qerr + gap, err)
    if vector:
        return value, err
    return value[0], err[0]
