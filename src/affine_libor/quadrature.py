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
  as its own tail is consistent, and each new segment starts from panels
  one period of the fastest unsettled oscillation wide.

Integrands take a 1-d ``ndarray`` of n abscissae and return either n
values (real or complex) or an ``(n, m)`` array: m integrands that share
their abscissae, such as one Fourier integrand per strike sharing one
transform evaluation per node.  A scalar integrand is a batch of one
component; results have the integrand's shape (a scalar, or m values and
m error estimates).  Component j meets its own budget
``max(abs_tol_j, rel_tol * |I_j|)``.

Refinement runs in rounds.  For every component that misses its budget,
the panels are sorted by that component's 7-vs-15 discrepancy and the
shortest prefix whose summed discrepancy covers the excess is marked; the
union of the marked sets is halved with one call to the integrand.  A
component whose prefix holds a panel already at floating-point resolution
stops refining, and a panel cap bounds the work; either way the reported
error is the summed discrepancy, so the caller can see that the budget
was missed.  Initial ``breakpoints`` help where a wide panel's
discrepancy misjudges its error: features much narrower than the
interval, or a panel holding many periods of an oscillation, where the
aliased 7- and 15-point rules can agree while both are wrong.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

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


def _components(values, n: int) -> np.ndarray:
    """Integrand output at n abscissae as an (n, m) array."""
    return np.asarray(values).reshape(n, -1)


def _panels_eval(f: Callable, lows: np.ndarray, highs: np.ndarray):
    """GK15 values and 7-vs-15 discrepancies, shape (panels, components),
    on a batch of panels with one call to f; plus whether f is
    vector-valued."""
    mid = 0.5 * (lows + highs)
    half = 0.5 * (highs - lows)
    pts = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    raw = f(pts)
    vals = _components(raw, pts.size).reshape(lows.size, 15, -1)
    k15 = half[:, None] * (_WK_FULL @ vals)
    g7 = half[:, None] * (_WG_FULL @ vals)
    return k15, np.abs(k15 - g7), np.ndim(raw) == 2


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
    if short.size == 0:
        return mark
    order = np.argsort(-errs[:, short], axis=0, kind="stable")
    covered = np.cumsum(np.take_along_axis(errs[:, short], order, axis=0),
                        axis=0)
    # prefix row i is chosen while the panels before it leave excess open
    chosen = np.vstack([np.ones((1, short.size), dtype=bool),
                        covered[:-1] < excess[short]])
    able = np.all(splittable[order] | ~chosen, axis=0)
    mark[order[chosen & able]] = True
    return mark


def adaptive_gauss_kronrod(f, a: float, b: float, abs_tol=0.0,
                           rel_tol: float = 1e-10, max_panels: int = 1024,
                           breakpoints=()):
    """Integrate f on [a, b]; returns (value, error_estimate).

    Starts from the panels between ``a``, the ``breakpoints`` inside
    (a, b) and ``b``, then refines by the covering rule of the module
    docstring until every component's summed discrepancy meets
    ``max(abs_tol, rel_tol * |value|)`` (``abs_tol`` may be one value per
    component) or the panel budget runs out.  The returned error estimate
    is that summed discrepancy, a deliberately conservative figure.
    """
    inner = np.sort(np.asarray(breakpoints, dtype=float))
    edges = np.concatenate([[a], inner[(inner > a) & (inner < b)], [b]])
    lo, hi = edges[:-1], edges[1:]
    vals, errs, vector = _panels_eval(f, lo, hi)
    while True:
        total, total_err = vals.sum(axis=0), errs.sum(axis=0)
        budget = np.maximum(abs_tol, rel_tol * np.abs(total))
        mid = 0.5 * (lo + hi)
        split = _covering_split(errs, total_err - budget,
                                (mid > lo) & (mid < hi))
        idx = np.flatnonzero(split)
        room = max_panels - lo.size
        if idx.size == 0 or room <= 0:
            break
        if idx.size > room:  # keep the panels furthest over budget
            ratio = errs[idx] / np.maximum(budget, np.finfo(float).tiny)
            idx = idx[np.argsort(-ratio.max(axis=1), kind="stable")[:room]]
        keep = np.ones(lo.size, dtype=bool)
        keep[idx] = False
        new_lo = np.concatenate([lo[idx], mid[idx]])
        new_hi = np.concatenate([mid[idx], hi[idx]])
        v2, e2, _ = _panels_eval(f, new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[keep], v2])
        errs = np.concatenate([errs[keep], e2])
    if vector:
        return total, total_err
    return total[0], total_err[0]


# Largest phase step of the central difference that measures a tail's
# frequency: it is off by (omega*h)^2/6 relative, at most 7e-7.
_PHASE_STEP = 2e-3


def _tail_by_parts(f, v: float):
    """Two-term integration-by-parts estimate of ``int_v^inf f`` and the
    frequency |omega_j| of each component at v, both as arrays.

    Writes each component f_j = exp(i*omega_j*u) * h_j(u) with the
    instantaneous frequency omega_j = Im(f_j'/f_j) measured at u = v, which
    makes h_j locally non-oscillatory; the difference step is shrunk until
    it turns the fastest phase by at most ``_PHASE_STEP``, since the error
    of omega enters the tail relative.  Integration by parts is only
    trustworthy when the phase turns much faster than the amplitude decays
    (1/omega^2 blows up otherwise); slow-phase tails fall back to the
    power-law closure int_v^inf A u^-p du = f(v) v / (p - 1), which is
    exact for a pure power integrand.
    """
    step = 1e-3 * max(v, 1.0)
    for _ in range(8):
        raw = f(np.array([v - step, v, v + step]))
        c_m, c_0, c_p = _components(raw, 3).astype(complex)
        live = np.abs(c_0) >= 1e-300
        c_0 = np.where(live, c_0, 1.0)
        deriv = (c_p - c_m) / (2.0 * step)
        omega = np.where(live, np.imag(deriv / c_0), 0.0)
        fastest = float(np.max(np.abs(omega)))
        if fastest * step <= _PHASE_STEP:
            break
        step = 0.5 * _PHASE_STEP / fastest
    p = -np.real(deriv / c_0) * v
    power = c_0 * v / (np.clip(p, 1.5, 16.0) - 1.0)
    safe = np.where(omega != 0.0, omega, 1.0)
    parts = 1j * c_0 / safe - (deriv - 1j * safe * c_0) / safe ** 2
    slow = np.abs(omega) * v <= 10.0 * np.maximum(p, 1.0)
    return np.where(live, np.where(slow, power, parts), 0.0), np.abs(omega)


def semi_infinite_oscillatory(f, initial_width: float = 64.0,
                              abs_tol: float = 0.0, rel_tol: float = 1e-9,
                              max_doublings: int = 26,
                              max_panels: int = 512):
    """Integrate ``f`` on [0, inf); returns (value, error_estimate).

    The head [0, V] is handled by :func:`adaptive_gauss_kronrod`, then V
    is doubled.  Each component settles on its own: once the tail closed
    by :func:`_tail_by_parts` is consistent across one doubling to within
    half its error budget, its value, error and tail are fixed, and later
    segments give it an infinite absolute tolerance, so it no longer
    drives refinement; doubling stops when every component has settled.
    Segment [V, 2V] starts from panels one period wide at the fastest
    unsettled frequency measured at V (at most ``max_panels // 2``), so
    that no starting panel aliases the oscillation.  The reported error
    is quadrature error plus the consistency gap at settling, so a caller
    can always judge whether the target was met.
    """
    v = float(initial_width)
    head, head_err = adaptive_gauss_kronrod(f, 0.0, v, rel_tol=rel_tol * 0.1,
                                            abs_tol=abs_tol * 0.1,
                                            max_panels=max_panels)
    total, qerr = np.atleast_1d(head), np.atleast_1d(head_err)
    tail, omega = _tail_by_parts(f, v)
    value, err = total + tail, np.full(total.shape, np.inf)
    gap = err
    unsettled = np.ones(total.shape, dtype=bool)
    for _ in range(max_doublings):
        budget = np.maximum(abs_tol, rel_tol * np.abs(total + tail))
        fastest = np.max(omega, where=unsettled, initial=0.0)
        n = max(1, int(np.ceil(np.fmin(fastest * v / (2.0 * np.pi),
                                       max_panels // 2))))
        # a component can take a dozen doublings to settle, so each
        # segment may spend a twentieth of its budget
        seg, serr = adaptive_gauss_kronrod(
            f, v, 2.0 * v, rel_tol=rel_tol * 0.1,
            abs_tol=np.where(unsettled, budget * 0.05, np.inf),
            max_panels=max_panels,
            breakpoints=np.linspace(v, 2.0 * v, n + 1)[1:-1])
        tail_next, omega = _tail_by_parts(f, 2.0 * v)
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
    if np.ndim(head) == 0:
        return value[0], err[0]
    return value, err
