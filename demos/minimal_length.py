"""Minimal position uncertainty from the oscillator ground-state sweep.

Sweeping the trap stiffness maps out (Delta x)^2 as a function of
q = hbar^2 beta / (2 sigma0^2).  The curve decreases monotonically and
approaches hbar^2 beta: no state of the deformed theory can localize below
the minimal length hbar sqrt(beta), the same value the algebraic
uncertainty-relation optimization gives.  Three self-consistent ground
states on a 1024-point grid, at q = 10, 100 and 1000, reach the same limit.
"""

import math

import numpy as np

from gupnlse import (
    DeformationModel,
    Grid,
    PotentialSpec,
    UnitsConfig,
    harmonic_analytic,
    min_position_uncertainty_scan,
    position_stats,
    solve_consistent,
)
from gupnlse.stationary import gup_min_uncertainty_product

units = UnitsConfig()
beta = 1.0

q = np.logspace(-2, 2, 200)
dx_sq, infimum = min_position_uncertainty_scan(beta, q, units)

print(f"beta = {beta}")
print(f"{'q':>10s} {'(dx)^2':>16s}")
for k in range(0, len(q), 25):
    print(f"{q[k]:10.3g} {dx_sq[k]:16.8g}")
print(f"{q[-1]:10.3g} {dx_sq[-1]:16.8g}")

target = units.hbar**2 * beta
print(f"\ninfimum estimate : {infimum:.10f}")
print(f"hbar^2 beta      : {target:.10f}")
print(f"relative gap     : {infimum / target - 1:.2e}")
print(f"monotone decrease: {bool(np.all(np.diff(dx_sq) < 0))}")

# the consistent closure on a grid: sigma0^2 = hbar^2 beta / (2 q) sets the
# stiffness zeta = hbar^2 / (m sigma0^4) of each trap
print(f"\n{'q':>10s} {'(dx)^2/(hbar^2 beta), grid':>28s} {'closed form':>14s} {'solves':>7s}")
for qk in (10.0, 100.0, 1e3):
    sigma0_sq = units.hbar**2 * beta / (2.0 * qk)
    zeta = units.hbar**2 / (units.mass * sigma0_sq**2)
    ana = harmonic_analytic(beta, zeta, units)
    grid = Grid.centered(10.0 * math.sqrt(ana.sigma_sq), 1024)
    res = solve_consistent(grid, PotentialSpec.harmonic(zeta), DeformationModel.gup(beta), units)
    _, delta = position_stats(res.psi)
    closed, _ = min_position_uncertainty_scan(beta, [qk], units)
    print(f"{qk:10.3g} {delta[0] ** 2 / target:28.10f} {closed[0] / target:14.10f} "
          f"{res.iterations:7d}")

# the same bound by direct optimization of dx >= hbar (1 + beta dp^2)/(2 dp)
dp = np.linspace(1e-2, 10, 100001)
direct = gup_min_uncertainty_product(beta, dp, units).min()
print(f"\ndirect optimization of the uncertainty product: min dx = {direct:.8f}")
print(f"hbar sqrt(beta)                               : {np.sqrt(beta):.8f}")
