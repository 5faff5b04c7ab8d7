"""Time evolution under the Fisher-coupled nonlinearity.

Three behaviors of the split-step propagator:

1. plane waves pass through untouched (the nonlinear coupling vanishes with
   the Fisher information of a flat density),
2. probability is conserved to rounding over long runs, and
3. scaling an unnormalized initial state does not scale the trajectory:
   the deformed dynamics is genuinely nonlinear, unlike the identity model.
"""

import math

import numpy as np

from gupnlse import (
    DeformationModel,
    EvolutionConfig,
    Grid,
    PotentialSpec,
    UnitsConfig,
    evolve,
    gaussian_state,
    plane_wave,
)

units = UnitsConfig()  # the states carry it; evolve takes hbar and m from them

# --- 1. plane-wave transparency with a strong deformation
L, n = 16.0, 128
gper = Grid.centered(L / 2, n, boundary="periodic")
k = 2 * math.pi * 5 / L
pw = plane_wave(gper, k, units)
cfg = EvolutionConfig(dt=0.01, steps=1000, model=DeformationModel.gup(1.0),
                      potential=PotentialSpec.free())
traj = evolve(pw, cfg)
amp_dev = float(np.max(np.abs(np.abs(traj.psi_final.values) - 1 / math.sqrt(L))))
print(f"plane wave, beta=1, 1000 steps: max |psi| deviation = {amp_dev:.2e}")
print(f"  W stayed at {traj.W_history.max():.2e} (no nonlinear coupling felt)")

# --- 2. norm conservation for a breathing packet
g = Grid.centered(12.0, 256, boundary="periodic")
psi0 = gaussian_state(g, 0.85, units=units)
cfg = EvolutionConfig(dt=2e-3, steps=1000, model=DeformationModel.gup(0.2),
                      potential=PotentialSpec.harmonic(1.0))
traj = evolve(psi0, cfg)
print(f"\nbreathing packet, beta=0.2: norm drift = "
      f"{float(np.max(np.abs(traj.norms - 1.0))):.2e} over 1000 steps")
print(f"  W ranged over [{traj.W_history.min():.4f}, {traj.W_history.max():.4f}]")

# --- 3. homogeneity: broken by the deformation, exact without it
T = 2 * math.pi
A = 0.5
for beta, label in ((0.2, "gup beta=0.2"), (0.0, "identity")):
    model = DeformationModel.gup(beta) if beta else DeformationModel.identity()
    cfg = EvolutionConfig(dt=T / 4000, steps=4000, model=model,
                          potential=PotentialSpec.harmonic(1.0))
    t_scaled = evolve(psi0.with_values(A * psi0.values), cfg)
    t_base = evolve(psi0, cfg)
    ref = A * t_base.psi_final.values
    num = math.sqrt(float(np.sum(np.abs(t_scaled.psi_final.values - ref) ** 2)))
    den = math.sqrt(float(np.sum(np.abs(ref) ** 2)))
    print(f"\n{label}: evolve(A psi) vs A evolve(psi) after one period: "
          f"relative deviation = {num / den:.3e}")
