"""Self-consistent ground state of the deformed oscillator vs the closed form.

The stationary equation with frozen coefficients W_l is linear; the physics
enters through the closure W = W(C F[rho]).  The closure solver finds the
root of h(W) = W_model(C F sqrt(1+W)) - W, where W_model is the W that the
harmonic scaling law C F ~ (1+W)^-1/2 makes consistent: a first trial from
the W = 0 state on a coarse grid, then secant steps kept inside a bracket on
the root, until |h| <= tol max(1, W) / 2, which "residual" reports.  C F
that no W up to 1e15 brings below the domain edge 1/(4 beta) raises
DomainError.  It runs on a 1024-point grid and its converged W and width
are compared against the analytic nu(q) and sigma^2 = sigma0^2 sqrt(1+nu).
"iters" counts its ground-state solves on the grid.
"""

import math

import numpy as np

from gupnlse import (
    DeformationModel,
    Grid,
    PotentialSpec,
    UnitsConfig,
    harmonic_analytic,
    position_stats,
    solve_consistent,
)

units = UnitsConfig()
zeta = 1.0

print(f"{'q':>8s} {'W1 (solver)':>14s} {'nu(q)':>14s} {'rel dev':>10s}"
      f" {'sigma^2':>12s} {'analytic':>12s} {'iters':>6s}")
for q in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0):
    beta = 2.0 * q  # sigma0 = 1 in working units, so q = beta/2
    ana = harmonic_analytic(beta, zeta, units)
    grid = Grid.centered(10.0 * math.sqrt(ana.sigma_sq), 1024)
    res = solve_consistent(grid, PotentialSpec.harmonic(zeta),
                           DeformationModel.gup(beta), units)
    _, delta = position_stats(res.psi)
    sig_sq = 2 * delta[0] ** 2
    print(f"{q:8.3g} {res.W_params[0]:14.6f} {ana.nu:14.6f} "
          f"{abs(res.W_params[0] - ana.nu) / ana.nu:10.2e} "
          f"{sig_sq:12.6f} {ana.sigma_sq:12.6f} {res.iterations:6d}")

print("\nThe effective mass m/(1+W) broadens the state: energies rise with beta.")
for beta in (0.0, 0.2, 0.8, 3.2):
    ana = harmonic_analytic(beta, zeta, units)
    grid = Grid.centered(10.0 * math.sqrt(ana.sigma_sq), 1024)
    model = DeformationModel.gup(beta) if beta else DeformationModel.identity()
    res = solve_consistent(grid, PotentialSpec.harmonic(zeta), model, units)
    print(f"  beta={beta:4.1f}: E = {res.energy:.6f}  (residual {res.residual:.2e}, "
          f"converged={res.converged})")
