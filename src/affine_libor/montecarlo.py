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
fan out deterministically without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGrid, InvalidParameter
from .model import CalibratedModel, forward_exponents, tilt_exponents
from .processes import CirParams, GammaOuParams, ProductProcess


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: same (seed, stream_id), same paths."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class PathBatch:
    """Simulated states on a monitoring grid, plus optional path weights.

    states has shape (n_paths, n_times, n_factors) and is non-negative;
    weights, when present, average to one in expectation.
    """

    times: np.ndarray
    states: np.ndarray
    weights: np.ndarray | None = None

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    def at(self, t: float) -> np.ndarray:
        """States (n_paths, d) at a grid time t."""
        idx = np.nonzero(np.isclose(self.times, t, rtol=0.0, atol=1e-12))[0]
        if idx.size == 0:
            raise InvalidGrid(f"time {t} is not on the monitoring grid")
        return self.states[:, idx[0], :]

    def dump_csv(self, path: str):
        """Write `path_id,time,factor_index,state,weight` rows.

        The weight column is left empty when the batch carries none.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("path_id,time,factor_index,state,weight\n")
            for p in range(self.states.shape[0]):
                w = "" if self.weights is None else \
                    f"{self.weights[p]:.12g}"
                for j, t in enumerate(self.times):
                    for f in range(self.states.shape[2]):
                        fh.write(f"{p},{t:.12g},{f},"
                                 f"{self.states[p, j, f]:.12g},{w}\n")


def _check_grid(times) -> np.ndarray:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0 or times[0] < 0.0 or np.any(np.diff(times) <= 0.0):
        raise InvalidGrid("monitoring grid must be increasing and start >= 0")
    return times


def simulate_cir(p: CirParams, times, n_paths: int,
                 rng: RngStream) -> PathBatch:
    """Exact square-root diffusion paths on the monitoring grid.

    Each transition is a scaled non-central chi-square draw with
    nu = lam * theta / eta^2 degrees of freedom and non-centrality
    X_t a(dt) / (eta^2 b(dt)); eta = 0 degenerates to the deterministic
    mean reversion x a(t) + theta (1 - a(t)).
    """
    times = _check_grid(times)
    gen = rng.generator()
    x = np.full(n_paths, p.x0)
    states = np.empty((n_paths, times.size, 1))
    prev = 0.0
    nu = p.lam * p.theta / p.eta ** 2 if p.eta > 0.0 else 0.0
    for j, t in enumerate(times):
        dt = t - prev
        if dt > 0.0:
            a, b = p.a(dt), p.b(dt)
            if p.eta == 0.0:
                x = x * a + p.theta * (1.0 - a)
            else:
                scale = p.eta ** 2 * b
                noncent = x * a / scale
                shapes = 0.5 * nu + gen.poisson(0.5 * noncent)
                x = scale * gen.gamma(shapes, 2.0)
        states[:, j, 0] = x
        prev = t
    return PathBatch(times, states)


def simulate_gamma_ou(p: GammaOuParams, times, n_paths: int,
                      rng: RngStream) -> PathBatch:
    """Exact gamma-OU paths: decay plus decayed exponential jumps.

    Jumps arrive with intensity lam * beta; a jump of size Exp(alpha) at
    time tau within a step of length dt survives as exp(-lam (dt - tau))
    times its size.
    """
    times = _check_grid(times)
    gen = rng.generator()
    x = np.full(n_paths, p.x0)
    states = np.empty((n_paths, times.size, 1))
    prev = 0.0
    for j, t in enumerate(times):
        dt = t - prev
        if dt > 0.0:
            x = x * math.exp(-p.lam * dt)
            counts = gen.poisson(p.lam * p.beta * dt, n_paths)
            total = int(counts.sum())
            if total:
                sizes = gen.exponential(1.0 / p.alpha, total)
                arrivals = gen.uniform(0.0, dt, total)
                owner = np.repeat(np.arange(n_paths), counts)
                x = x + np.bincount(
                    owner, weights=sizes * np.exp(-p.lam * (dt - arrivals)),
                    minlength=n_paths)
        states[:, j, 0] = x
        prev = t
    return PathBatch(times, states)


def simulate_process(process, times, n_paths: int,
                     rng: RngStream) -> PathBatch:
    """Exact paths of any supported family; product factors are stacked."""
    if isinstance(process, CirParams):
        return simulate_cir(process, times, n_paths, rng)
    if isinstance(process, GammaOuParams):
        return simulate_gamma_ou(process, times, n_paths, rng)
    if isinstance(process, ProductProcess):
        times = _check_grid(times)
        gen_stream = rng  # factors consume sub-streams deterministically
        parts = [simulate_process(f, times, n_paths,
                                  RngStream(gen_stream.seed,
                                            gen_stream.stream_id * 997 + j))
                 for j, f in enumerate(process.factors)]
        return PathBatch(times, np.concatenate([p.states for p in parts],
                                               axis=2))
    raise InvalidParameter(
        f"no exact sampler for process type {type(process).__name__}")


def martingale_values(m: CalibratedModel, k: int, t: float,
                      x: np.ndarray) -> np.ndarray:
    """M_t^{u_k} over an (n_paths, d) state array."""
    phi, psi = tilt_exponents(m, t, (k,))
    return np.exp(float(phi[0]) + x @ psi[0])


def _initial_value(m: CalibratedModel, k: int) -> float:
    """M_0^{u_k} at the model's initial state."""
    phi, psi = tilt_exponents(m, 0.0, (k,))
    return math.exp(float(phi[0] + np.dot(psi[0], m.x0)))


def _require_paths(n_paths: int):
    if n_paths < 2:
        raise InvalidParameter(
            f"need at least 2 paths for a standard error, got {n_paths}")


def forward_measure_weights(m: CalibratedModel, k: int, t: float,
                            x: np.ndarray) -> np.ndarray:
    """Radon-Nikodym weights dP_{T_k}/dP_{T_N} on F_t: M_t^{u_k}/M_0^{u_k}."""
    return martingale_values(m, k, t, x) / _initial_value(m, k)


def mc_price(m: CalibratedModel, payoff, horizon: float, measure_index: int,
             n_paths: int, rng: RngStream):
    """Discounted forward-measure expectation of an F_horizon payoff.

    Simulates under the terminal measure, weights with
    M^{u_k}_horizon / M^{u_k}_0 for k = measure_index, and returns
    (B(0,T_k) * weighted mean, standard error).  ``payoff`` maps the
    (n_paths, d) state array at ``horizon`` to per-path values.
    """
    _require_paths(n_paths)
    batch = simulate_process(m.process, [horizon], n_paths, rng)
    x = batch.at(horizon)
    w = forward_measure_weights(m, measure_index, horizon, x)
    vals = w * np.asarray(payoff(x), dtype=float)
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
        return np.maximum(np.exp(fe.A + x @ fe.B) - bold, 0.0)

    return mc_price(m, payoff, t_fix, k + 1, n_paths, rng)


def mc_swaption(m: CalibratedModel, start: int, end: int, strike: float,
                n_paths: int, rng: RngStream):
    """Payer swaption as a put on a coupon bond with unit exercise price."""
    t_ex = m.tenor.date(start)
    coupons = np.full(end - start, m.delta * strike)
    coupons[-1] += 1.0
    pairs = [forward_exponents(m, k, start, t_ex)
             for k in range(start + 1, end + 1)]
    A = np.array([fe.A for fe in pairs])
    B = np.stack([fe.B for fe in pairs])

    def payoff(x):
        bonds = np.exp(A[None, :] + x @ B.T)
        return np.maximum(1.0 - bonds @ coupons, 0.0)

    return mc_price(m, payoff, t_ex, start, n_paths, rng)


# Absolute floor of the agreement tests.  A gap below it is rounding or
# quadrature noise; without the floor a degenerate driver (eta = 0, no
# jumps), whose paths all coincide, divides that noise by a standard
# error of zero.
AGREEMENT_FLOOR = 1e-10


def agrees(estimate: float, expected: float, std_error: float,
           z_max: float = 3.0) -> bool:
    """|estimate - expected| <= max(z_max * std_error, AGREEMENT_FLOOR)."""
    return abs(estimate - expected) <= max(z_max * std_error,
                                           AGREEMENT_FLOOR)


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

    def passed(self, z_max: float = 3.0) -> bool:
        return agrees(self.sample_mean, self.expected, self.std_error,
                      z_max) and self.min_value >= 1.0


def martingale_checks(m: CalibratedModel, ks, t: float, n_paths: int,
                      rng: RngStream) -> list[MartingaleReport]:
    """Weighted-mean tests of the martingale property of M^{u_k} at time t.

    One simulation to time t serves every index k in ``ks``, and two
    ``tilt_exponents`` calls (at t and at 0) serve every index; the
    reports come back in the order of ``ks``.
    """
    _require_paths(n_paths)
    ks = list(ks)
    grid_t = t if t > 0.0 else 0.0
    x = simulate_process(m.process, [grid_t], n_paths, rng).at(grid_t)
    if not ks:
        return []
    phi_t, psi_t = tilt_exponents(m, t, ks)
    phi_0, psi_0 = tilt_exponents(m, 0.0, ks)
    reports = []
    for k, a_t, b_t, a_0, b_0 in zip(ks, phi_t, psi_t, phi_0, psi_0):
        vals = np.exp(float(a_t) + x @ b_t)
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
