"""Exact-transition simulation and statistical validators.

Both samplers draw transitions from the exact conditional law, so the
estimators carry no discretisation bias and converge at the pure Monte
Carlo rate:

* square-root diffusion: X_{t+dt} | X_t is a scaled non-central
  chi-square, sampled through the Poisson-Gamma mixture (valid for any
  positive, non-integer degrees of freedom);
* gamma-OU: deterministic decay plus a compound Poisson sum of
  exponentially distributed jumps, each decayed from its uniform arrival
  time.

Forward-measure expectations are estimated under the terminal measure by
weighting each path with the density M^{u_k}_t / M^{u_k}_0.  Streams are
counter-based (Philox keyed by (seed, stream_id)), so distinct stream ids
fan out deterministically without coordination, and simulations on
distinct streams may run in concurrent threads (numpy's samplers and
large ufuncs release the GIL) with the same draws as in sequence.

The arithmetic works in place so that a concurrent simulation adds little
memory: a sampler holds about three path-length arrays besides its
output, every factor of a product fills its own column of one states
array, and each exp(a + x @ b) over the paths is computed in place in
its own output array.  Each in-place step is an exact reordering of the plain formula
(commuted + and *, Gamma(shape, 2) as 2 * Gamma(shape, 1)), so the
estimates are bit-for-bit those of the plain formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidGrid, InvalidParameter
from .model import CalibratedModel, forward_exponents, tilt_exponents
from .processes import CirParams, GammaOuParams, ProductProcess


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: same (seed, stream_id), same paths."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer)) and v >= 0
                   for v in (self.seed, self.stream_id)):
            raise InvalidParameter(
                "seed and stream id must be non-negative integers, got "
                f"{self.seed!r} and {self.stream_id!r}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class PathBatch:
    """Simulated states on a monitoring grid.

    states has shape (n_paths, n_times, n_factors) and is non-negative.
    """

    times: np.ndarray
    states: np.ndarray

    def at(self, t: float) -> np.ndarray:
        """States (n_paths, d) at a grid time t."""
        idx = np.nonzero(np.isclose(self.times, t, rtol=0.0, atol=1e-12))[0]
        if idx.size == 0:
            raise InvalidGrid(f"time {t} is not on the monitoring grid")
        return self.states[:, idx[0], :]


def _check_grid(times) -> np.ndarray:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0 or times[0] < 0.0 or np.any(np.diff(times) <= 0.0):
        raise InvalidGrid("monitoring grid must be increasing and start >= 0")
    return times


def _poisson(gen: np.random.Generator, mean, size=None) -> np.ndarray:
    """Poisson draws; a mean that numpy cannot sample (NaN, or above about
    9.2e18: an extreme driver's non-centrality or jump intensity) is the
    driver's InvalidParameter."""
    try:
        return gen.poisson(mean, size)
    except ValueError as exc:
        raise InvalidParameter(
            f"exact sampler cannot draw this driver's Poisson counts: {exc}"
        ) from exc


def _fill_cir(p: CirParams, times: np.ndarray, gen: np.random.Generator,
              out: np.ndarray):
    """Write exact square-root paths on ``times`` into ``out`` (n_paths,
    n_times), holding three path-length arrays: the state, one scratch
    array and the Poisson counts."""
    x = np.full(out.shape[0], p.x0)
    tmp = np.empty_like(x)
    prev = 0.0
    nu = p.lam * p.theta / p.eta ** 2 if p.eta > 0.0 else 0.0
    for j, t in enumerate(times):
        dt = t - prev
        if dt > 0.0:
            a, b = p.a(dt), p.b(dt)
            if p.eta == 0.0:
                x *= a
                x += p.theta * (1.0 - a)
            else:
                scale = p.eta ** 2 * b
                # half the non-centrality x a / scale
                np.multiply(x, a, out=tmp)
                tmp /= scale
                tmp *= 0.5
                # Gamma(shape, 2) is 2 * Gamma(shape, 1), draw for draw
                np.add(_poisson(gen, tmp), 0.5 * nu, out=x)
                gen.standard_gamma(x, out=tmp)
                tmp *= 2.0
                np.multiply(tmp, scale, out=x)
        out[:, j] = x
        prev = t


def _fill_gamma_ou(p: GammaOuParams, times: np.ndarray,
                   gen: np.random.Generator, out: np.ndarray):
    """Write exact gamma-OU paths on ``times`` into ``out`` (n_paths,
    n_times)."""
    n_paths = out.shape[0]
    x = np.full(n_paths, p.x0)
    prev = 0.0
    for j, t in enumerate(times):
        dt = t - prev
        if dt > 0.0:
            x *= math.exp(-p.lam * dt)
            counts = _poisson(gen, p.lam * p.beta * dt, n_paths)
            total = int(counts.sum())
            if total:
                sizes = gen.exponential(1.0 / p.alpha, total)
                # each jump size decayed by exp(-lam (dt - arrival))
                decay = gen.uniform(0.0, dt, total)
                np.subtract(dt, decay, out=decay)
                decay *= -p.lam
                np.exp(decay, out=decay)
                decay *= sizes
                x += np.bincount(np.repeat(np.arange(n_paths), counts),
                                 weights=decay, minlength=n_paths)
        out[:, j] = x
        prev = t


def _fill(process, times: np.ndarray, rng: RngStream, out: np.ndarray):
    """Write exact paths of ``process`` into ``out`` (n_paths, n_times,
    dim); factor j of a product draws from stream ``stream_id * 997 + j``
    of the same seed."""
    if isinstance(process, CirParams):
        _fill_cir(process, times, rng.generator(), out[:, :, 0])
    elif isinstance(process, GammaOuParams):
        _fill_gamma_ou(process, times, rng.generator(), out[:, :, 0])
    elif isinstance(process, ProductProcess):
        for j, f in enumerate(process.factors):
            _fill(f, times, RngStream(rng.seed, rng.stream_id * 997 + j),
                  out[:, :, j:j + 1])
    else:
        raise InvalidParameter(
            f"no exact sampler for process type {type(process).__name__}")


def simulate_process(process, times, n_paths: int,
                     rng: RngStream) -> PathBatch:
    """Exact paths of any supported family; each factor of a product
    fills its own column of one states array."""
    times = _check_grid(times)
    dim = len(process.factors) if isinstance(process, ProductProcess) else 1
    states = np.empty((n_paths, times.size, dim))
    _fill(process, times, rng, states)
    return PathBatch(times, states)


def simulate_cir(p: CirParams, times, n_paths: int,
                 rng: RngStream) -> PathBatch:
    """Exact square-root diffusion paths on the monitoring grid.

    Each transition is a scaled non-central chi-square draw with
    nu = lam * theta / eta^2 degrees of freedom and non-centrality
    X_t a(dt) / (eta^2 b(dt)); eta = 0 degenerates to the deterministic
    mean reversion x a(t) + theta (1 - a(t)).
    """
    return simulate_process(p, times, n_paths, rng)


def simulate_gamma_ou(p: GammaOuParams, times, n_paths: int,
                      rng: RngStream) -> PathBatch:
    """Exact gamma-OU paths: decay plus decayed exponential jumps.

    Jumps arrive with intensity lam * beta; a jump of size Exp(alpha) at
    time tau within a step of length dt survives as exp(-lam (dt - tau))
    times its size.
    """
    return simulate_process(p, times, n_paths, rng)


def _restarted(process, x0: np.ndarray):
    """``process`` with the initial state of each sampled factor set to
    the matching entry of ``x0``; other families come back unchanged (and
    have no sampler)."""
    if isinstance(process, ProductProcess):
        return ProductProcess([_restarted(f, x0[j:j + 1])
                               for j, f in enumerate(process.factors)])
    if isinstance(process, (CirParams, GammaOuParams)):
        return replace(process, x0=float(x0[0]))
    return process


def model_states(m: CalibratedModel, t: float, n_paths: int,
                 rng: RngStream) -> np.ndarray:
    """States (n_paths, d) at time t of exact paths of the model's driver
    started, like every pricer, at the model's initial state ``m.x0``
    (a fit at another ``x0`` leaves the driver record's own behind)."""
    return simulate_process(_restarted(m.process, m.x0), [t], n_paths,
                            rng).at(t)


def _require_paths(n_paths: int):
    if n_paths < 2:
        raise InvalidParameter(
            f"need at least 2 paths for a standard error, got {n_paths}")


def _exp_affine(a: float, b: np.ndarray, x: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """exp(a + x @ b) over an (n_paths, d) state array, computed in
    ``out``.  A one-factor product is a plain multiply: numpy's
    (n, 1) @ (1,) matmul gives the same values several times slower."""
    if b.shape == (1,):
        np.multiply(x[:, 0], b[0], out=out)
    else:
        np.matmul(x, b, out=out)
    out += a
    return np.exp(out, out=out)


def forward_measure_weights(m: CalibratedModel, k: int, t: float,
                            x: np.ndarray) -> np.ndarray:
    """Radon-Nikodym weights dP_{T_k}/dP_{T_N} on F_t: M_t^{u_k}/M_0^{u_k}
    over an (n_paths, d) state array."""
    phi, psi = tilt_exponents(m, [t, 0.0], [k, k])
    w = _exp_affine(float(phi[0]), psi[0], x, np.empty(len(x)))
    w /= math.exp(float(phi[1] + np.dot(psi[1], m.x0)))
    return w


def mc_price(m: CalibratedModel, payoff, horizon: float, measure_index: int,
             n_paths: int, rng: RngStream):
    """Discounted forward-measure expectation of an F_horizon payoff.

    Simulates under the terminal measure, weights with
    M^{u_k}_horizon / M^{u_k}_0 for k = measure_index, and returns
    (B(0,T_k) * weighted mean, standard error).  ``payoff`` maps the
    (n_paths, d) state array at ``horizon`` to per-path values.
    """
    _require_paths(n_paths)
    x = model_states(m, horizon, n_paths, rng)
    vals = forward_measure_weights(m, measure_index, horizon, x)
    vals *= np.asarray(payoff(x), dtype=float)
    scale = m.bond0(measure_index)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n_paths))
    return scale * mean, scale * stderr


def mc_caplet(m: CalibratedModel, k: int, strike: float, n_paths: int,
              rng: RngStream):
    """Caplet on the period-k rate as a call on the forward bond price."""
    t_fix = m.tenor.date(k)
    fe = forward_exponents(m, k, k + 1, t_fix)
    bold = 1.0 + m.delta * strike

    def payoff(x):
        vals = _exp_affine(fe.A, fe.B, x, np.empty(len(x)))
        vals -= bold
        return np.maximum(vals, 0.0, out=vals)

    return mc_price(m, payoff, t_fix, k + 1, n_paths, rng)


def mc_swaption(m: CalibratedModel, start: int, end: int, strike: float,
                n_paths: int, rng: RngStream):
    """Payer swaption as a put on a coupon bond with unit exercise price."""
    t_ex = m.tenor.date(start)
    coupons = np.full(end - start, m.delta * strike)
    coupons[-1] += 1.0
    phi, psi = tilt_exponents(m, t_ex, range(start, end + 1))
    A, B = phi[1:] - phi[0], psi[1:] - psi[0]

    def payoff(x):
        bonds = np.exp(A[None, :] + x @ B.T)
        return np.maximum(1.0 - bonds @ coupons, 0.0)

    return mc_price(m, payoff, t_ex, start, n_paths, rng)


# Absolute floor of the agreement tests.  A gap below it is rounding or
# quadrature noise; without the floor a degenerate driver (eta = 0, no
# jumps), whose paths all coincide, divides that noise by a standard
# error of zero.
AGREEMENT_FLOOR = 1e-10


def agrees(estimate: float, expected: float, std_error: float) -> bool:
    """|estimate - expected| <= max(3 * std_error, AGREEMENT_FLOOR)."""
    return abs(estimate - expected) <= max(3.0 * std_error, AGREEMENT_FLOOR)


@dataclass(frozen=True)
class MartingaleReport:
    """Sample statistics of M_t^{u_k} against its time-zero value."""

    index: int
    t: float
    expected: float
    sample_mean: float
    std_error: float
    z_score: float
    min_value: float
    n_paths: int

    def passed(self) -> bool:
        return agrees(self.sample_mean, self.expected, self.std_error) \
            and self.min_value >= 1.0


def martingale_checks(m: CalibratedModel, ks, t: float, n_paths: int,
                      rng: RngStream) -> list[MartingaleReport]:
    """Weighted-mean tests of the martingale property of M^{u_k} at time t.

    One simulation to time t serves every index k in ``ks``, and one
    ``tilt_exponents`` call (at t and at 0) serves every index; the
    reports come back in the order of ``ks``.
    """
    _require_paths(n_paths)
    ks = list(ks)
    grid_t = t if t > 0.0 else 0.0
    x = model_states(m, grid_t, n_paths, rng)
    if not ks:
        return []
    phi, psi = tilt_exponents(m, [t, 0.0], [[k, k] for k in ks])
    reports = []
    vals = np.empty(n_paths)
    for k, (a_t, a_0), (b_t, b_0) in zip(ks, phi, psi):
        _exp_affine(float(a_t), b_t, x, vals)
        m0 = math.exp(float(a_0 + np.dot(b_0, m.x0)))
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / math.sqrt(n_paths))
        z = 0.0 if stderr == 0.0 else (mean - m0) / stderr
        reports.append(MartingaleReport(k, t, m0, mean, stderr, z,
                                        float(vals.min()), n_paths))
    return reports


def martingale_check(m: CalibratedModel, k: int, t: float, n_paths: int,
                     rng: RngStream) -> MartingaleReport:
    """Weighted-mean test of the martingale property of M^{u_k} at time t."""
    return martingale_checks(m, [k], t, n_paths, rng)[0]
