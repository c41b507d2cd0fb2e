#!/usr/bin/env python3
"""Caplet pricing three ways: Fourier, non-central chi-square, Monte Carlo.

A caplet on the period-k rate is a call on the forward bond price
exp(A_k + B_k X_{T_k}).  The Fourier pricer inverts the forward-price
moment generating function along a dampened contour; for square-root
drivers the log-forward price is location-scale non-central chi-square
under each forward measure, giving a closed form in two chi-square tail
probabilities.  The exact-transition Monte Carlo oracle cross-checks
both.  Cap-floor parity ties puts to calls without any model input, so
each route's floorlet is its caplet less the period's forward value.
"""

from pathlib import Path

import numpy as np

from affine_libor import (CapletSpec, CirParams, GammaOuParams, RngStream,
                          caplet_cir_closed, caplet_fourier, fit_term_structure,
                          floorlet_cir_closed, floorlet_fourier, mc_caplet)
from affine_libor.cli import load_tenor_csv

tenor = load_tenor_csv(str(Path(__file__).resolve().parents[1]
                           / "data" / "zcb_euro_2002-02-19.csv"))
cir = fit_term_structure(tenor, CirParams(0.001, 0.50, 0.59, 1.25),
                         x0=np.array([1.25]))
gou = fit_term_structure(tenor, GammaOuParams(0.01, 2.0, 1.0, 1.25),
                         x0=np.array([1.25]))

print("square-root driver, caplet k=2 (expiry 1y), strike 3%")
spec = CapletSpec(2, 0.03)
fourier = caplet_fourier(cir, spec)
closed = caplet_cir_closed(cir, spec)
mc, se = mc_caplet(cir, 2, 0.03, 1_000_000, RngStream(7))
print(f"  fourier     {fourier.price:.10f}  (quad err {fourier.error_estimate:.1e},"
      f" damping {fourier.damping:.1f})")
print(f"  closed form {closed.price:.10f}")
print(f"  monte carlo {mc:.10f}  (+- {se:.1e}, 1e6 exact paths)")
print(f"  fourier vs closed: {abs(fourier.price / closed.price - 1):.2e} relative")

print("\nfloorlet by parity: cap - (B(0,T_k) - (1 + delta K) B(0,T_k+1))")
floor = floorlet_fourier(cir, spec)
print(f"  fourier     {floor.price:.10f}  (err {floor.error_estimate:.1e})")
print(f"  closed form {floorlet_cir_closed(cir, spec).price:.10f}")

print("\ngamma-OU driver (jumps only), caplet k=2, strike 4%")
g = caplet_fourier(gou, CapletSpec(2, 0.04))
mc, se = mc_caplet(gou, 2, 0.04, 1_000_000, RngStream(11))
print(f"  fourier     {g.price:.10f}")
print(f"  monte carlo {mc:.10f}  (+- {se:.1e})  z = {(g.price - mc) / se:+.2f}")

print("\nstrike ladder (square-root, k=5): decreasing and convex in strike")
for strike in (0.01, 0.02, 0.03, 0.04, 0.05, 0.06):
    price = caplet_cir_closed(cir, CapletSpec(5, strike)).price
    print(f"  K={strike:.3f}  {price:.8f}")
