"""Norm-preserving propagation of the Fisher-coupled nonlinear wave equation.

Strang splitting with the nonlinearity treated as a real state-dependent
potential: within a step the coefficients W_l are frozen, so both potential
half-rotations are exactly unimodular.  The kinetic sub-step follows the grid
boundary: an exact spectral multiplier (periodic), a unitary Crank-Nicolson
solve (dirichlet).  W_l is recomputed from |psi| after the kinetic sub-step
(midpoint flavor), which keeps the scheme second order in dt.

Statistics are not computed inside the loop.  evolve keeps each step's end
state and its Fisher information, and computes the trajectory's rows after
the steps they describe, in blocks of at most 128 KiB of states
(_STATS_BLOCK_BYTES), with one vectorized pass over a leading time axis.

Step limit: besides the phase-rotation guard dt max|V|/hbar < 0.5 checked at
start, the frozen V_W, a second derivative of |psi| applied explicitly, bounds
the stable dt by a multiple of m dx^2/hbar.  Measured on the consistent
harmonic ground state (n = 512 and 1024, t = 0.3): 0.54 at beta = 0.2 and 0.28
at beta = 1 on periodic grids, 1.45-1.51 and 0.47 on dirichlet ones.  Above it
the state blows up, and the growing Fisher information truncates the
trajectory as if the state had entered the excluded regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .deformation import DeformationModel, UnitsConfig, W_eval
from .errors import DomainError, ValidationError
from .fields import (
    BOUNDARY_PERIODIC,
    Grid,
    WaveField,
    _curvature_ratio,
    _field_stats,
    field_stats,  # noqa: F401  (bench/ traces it under this name)
    fisher_per_dim,
    galilean_boost,  # noqa: F401  (also public under this module)
)
from .stationary import PotentialSpec

# Bound on the states evolve holds before it computes their statistics; a
# block has at least one row.  Larger blocks gain nothing: from 256 KiB on,
# the block's temporaries are large enough for the C allocator to hand them
# back to the system and fault them in again on every pass, and a dirichlet
# row then costs more than it does alone.
_STATS_BLOCK_BYTES = 128 * 1024


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    steps: int
    model: DeformationModel
    potential: PotentialSpec
    units: UnitsConfig = field(default_factory=UnitsConfig)
    snapshot_every: int = 0  # 0: keep only initial and final snapshots

    def __post_init__(self):
        if not 0 < self.dt < math.inf:  # negated, so that nan fails it too
            raise ValidationError("dt must be positive and finite")
        if self.steps < 1:
            raise ValidationError("steps must be at least 1")
        if self.snapshot_every < 0:
            raise ValidationError("snapshot_every must be nonnegative")


@dataclass
class Trajectory:
    """Recorded time series of an evolution run.

    When the run hits the excluded regime (C F_l >= 1/(4 beta)) the
    trajectory is returned truncated, with failed_step and failure set.
    """

    times: np.ndarray
    stats: list
    snapshots: list  # (time, WaveField) pairs
    W_history: np.ndarray
    psi_final: WaveField
    failed_step: int = None
    failure: str = None

    @property
    def norms(self) -> np.ndarray:
        return np.array([s.norm for s in self.stats])


def _W_params(F, model: DeformationModel, units: UnitsConfig) -> np.ndarray:
    """W_l = W(C F_l) for the Fisher information F of the instantaneous
    density; DomainError when any C F_l reaches the excluded edge 1/(4 beta)."""
    z = units.C * F
    worst = max(z.tolist())
    if worst >= model.z_max_W:
        raise DomainError(
            f"C*F_{int(np.argmax(z))} = {worst:.6g} >= 1/(4 beta) = {model.z_max_W:.6g}: "
            "state entered the physically excluded regime"
        )
    return np.atleast_1d(W_eval(z, model))


def _V_W(a: np.ndarray, grid: Grid, W, units: UnitsConfig) -> np.ndarray:
    """-(hbar^2/2m) sum_l W_l (d_l^2 a)/a for the modulus a = |psi|."""
    out = np.zeros(grid.shape)
    pref = -(units.hbar**2) / (2 * units.mass)
    for l in range(grid.dims):
        if W[l] != 0.0:
            out = out + pref * W[l] * _curvature_ratio(a, grid, l)
    return out


def effective_potential(psi: WaveField, model: DeformationModel,
                        units: UnitsConfig = None) -> np.ndarray:
    """V_W(x) = -(hbar^2/2m) sum_l W_l r_l(x) with r_l the |psi| curvature ratio."""
    units = units or psi.units
    W = _W_params(fisher_per_dim(psi), model, units)
    return _V_W(np.abs(psi.values), psi.grid, W, units)


class _KineticPropagator:
    """Full-dt kinetic sub-step: spectral on periodic grids, else per-axis Crank-Nicolson."""

    def __init__(self, grid: Grid, dt: float, units: UnitsConfig):
        self.grid = grid
        self.periodic = grid.boundary == BOUNDARY_PERIODIC
        if self.periodic:
            k2 = np.zeros(grid.shape)
            for l, k in enumerate(grid.wavenumbers):
                shape = [1] * grid.dims
                shape[l] = -1
                k2 = k2 + (k**2).reshape(shape)
            self.multiplier = np.exp(-1j * units.hbar * k2 * dt / (2 * units.mass))
            # fftn's n-d bookkeeping costs as much as a short 1D transform
            self.fft, self.ifft = ((np.fft.fft, np.fft.ifft) if grid.dims == 1
                                   else (np.fft.fftn, np.fft.ifftn))
        else:
            # Cayley factors per axis; the FD Laplacians along different axes
            # commute, so the per-axis product is unitary and second order.
            # The matrices are constant: factor each once (LAPACK gttrf) and
            # only back-substitute (gttrs) per step.
            self.bands = []
            self.factors = []
            for l in range(grid.dims):
                n = grid.points_per_dim[l]
                coef = units.hbar**2 / (2 * units.mass * grid.spacing[l] ** 2)
                theta = 1j * dt / (2 * units.hbar)
                diag = 1.0 + theta * 2 * coef * np.ones(n)
                off = theta * (-coef) * np.ones(n - 1)
                self.bands.append((diag, off))
                self.factors.append(zgttrf(off, diag, off)[:5])

    def apply(self, values: np.ndarray) -> np.ndarray:
        if self.periodic:
            return self.ifft(self.fft(values) * self.multiplier)
        out = values
        for l in range(self.grid.dims):
            out = np.moveaxis(out, l, 0)
            shp = out.shape
            flat = out.reshape(shp[0], -1)
            diag, off = self.bands[l]
            rhs = (2.0 - diag[:, None]) * flat
            rhs[:-1] += -off[:, None] * flat[1:]
            rhs[1:] += -off[:, None] * flat[:-1]
            flat = zgttrs(*self.factors[l], rhs)[0]
            out = np.moveaxis(flat.reshape(shp), 0, l)
        return out


def _check_stability(V_total: np.ndarray, dt: float, units: UnitsConfig) -> None:
    limit = dt * float(np.max(np.abs(V_total))) / units.hbar
    if not limit < 0.5:
        raise ValidationError(
            f"dt * max|V_total| / hbar = {limit:.3g} >= 0.5: reduce dt or the grid extent"
        )


def step(psi: WaveField, config: EvolutionConfig) -> WaveField:
    """One Strang-split step.  Stateless convenience wrapper around evolve's
    inner loop; for long runs prefer evolve, which reuses the propagator."""
    traj = evolve(psi, replace(config, steps=1, snapshot_every=0))
    if traj.failure is not None:
        raise DomainError(traj.failure)
    return traj.psi_final


def evolve(psi0: WaveField, config: EvolutionConfig) -> Trajectory:
    """Propagate for config.steps steps, recording statistics every step.

    The statistics of a step are computed after it, in blocks: each step's
    end state is kept until at most _STATS_BLOCK_BYTES (128 KiB) of states
    are held, and then, and at the end of the run, the whole block goes
    through one vectorized pass.  The rows are those field_stats gives.

    The phase-rotation stability guard dt max|V + V_W| / hbar < 0.5 is
    checked on the initial state, whose samples must be finite.  A
    DomainError raised mid-run truncates the trajectory instead of
    discarding it: the excluded regime is itself a reportable result.
    """
    grid = psi0.grid
    units = config.units
    if not np.all(np.isfinite(psi0.values)):
        raise ValidationError("psi0 has non-finite samples")
    kinetic = _KineticPropagator(grid, config.dt, units)
    V = config.potential.evaluate(grid)

    # One modulus and one Fisher pass per step, on psi_mid: the closing
    # potential half-rotation is unimodular, so F[psi_mid] is also the Fisher
    # information of the step's end state.
    vals = psi0.values
    a = np.abs(vals)
    F = fisher_per_dim(a**2, grid)
    W = _W_params(F, config.model, units)
    VW = _V_W(a, grid, W, units)
    _check_stability(V + VW, config.dt, units)

    times = [0.0]
    stats = []
    W_hist = [W]
    snapshots = [(0.0, psi0)]
    failed_step = None
    failure = None
    block = np.empty((max(1, _STATS_BLOCK_BYTES // vals.nbytes),) + grid.shape, complex)
    block_F = []

    def record(vals, F):
        if len(block_F) == len(block):
            flush()
        block[len(block_F)] = vals
        block_F.append(F)

    def flush():
        stats.extend(_field_stats(block[:len(block_F)], grid, psi0.units, block_F))
        block_F.clear()

    record(vals, F)
    half = np.exp(-1j * (V + VW) * config.dt / (2 * units.hbar))
    for n in range(config.steps):
        try:
            mid = kinetic.apply(vals * half)
            a = np.abs(mid)
            F = fisher_per_dim(a**2, grid)
            W_new = _W_params(F, config.model, units)
            # all zeros before and after (the identity model): V_W and half
            # would come out bit-identical, so they are kept
            if W_new.any() or W.any():
                VW = _V_W(a, grid, W_new, units)
                half = np.exp(-1j * (V + VW) * config.dt / (2 * units.hbar))
            W = W_new
            vals = mid * half
        except DomainError as err:
            failed_step = n
            failure = f"step {n}: {err}"
            break
        t = (n + 1) * config.dt
        times.append(t)
        record(vals, F)
        W_hist.append(W)
        if config.snapshot_every and (n + 1) % config.snapshot_every == 0:
            snapshots.append((t, psi0.with_values(vals)))
    flush()
    psi = psi0.with_values(vals)
    if snapshots[-1][0] != times[-1]:
        snapshots.append((times[-1], psi))
    return Trajectory(
        times=np.array(times),
        stats=stats,
        snapshots=snapshots,
        W_history=np.array(W_hist),
        psi_final=psi,
        failed_step=failed_step,
        failure=failure,
    )
