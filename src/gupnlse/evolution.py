"""Norm-preserving propagation of the Fisher-coupled nonlinear wave equation.

Strang splitting with the nonlinearity treated as a real state-dependent
potential: within a step the coefficients W_l are frozen, so both potential
half-rotations are exactly unimodular, and the kinetic sub-step is either an
exact spectral multiplier (periodic grids) or a unitary Crank-Nicolson solve
(dirichlet grids).  W_l is recomputed from |psi| after the kinetic sub-step
(midpoint flavor), which keeps the scheme second order in dt.

Practical stability note: besides the phase-rotation guard dt max|V|/hbar <
0.5 enforced at start, the nonlinear feedback resonates with grid modes
whose kinetic phase per step hbar k^2 dt / 2m is of order one; keep
dt <~ m dx^2 / hbar for long runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .deformation import DeformationModel, UnitsConfig, W_eval
from .errors import DomainError, ValidationError
from .fields import (
    BOUNDARY_DIRICHLET,
    BOUNDARY_PERIODIC,
    FieldStats,
    Grid,
    WaveField,
    _curvature_ratio,
    _field_stats,
    density,
    field_stats,  # noqa: F401  (bench/ traces it under this name)
    fisher_per_dim,
)
from .stationary import PotentialSpec

KINETIC_SPECTRAL = "spectral_periodic"
KINETIC_CRANK_NICOLSON = "crank_nicolson_dirichlet"


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    steps: int
    model: DeformationModel
    potential: PotentialSpec
    units: UnitsConfig = field(default_factory=UnitsConfig)
    kinetic_scheme: str = None  # inferred from the grid when None
    W_recompute_every: int = 1
    snapshot_every: int = 0  # 0: keep only initial and final snapshots

    def __post_init__(self):
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        if self.steps < 1:
            raise ValidationError("steps must be at least 1")
        if self.W_recompute_every < 1:
            raise ValidationError("W_recompute_every must be at least 1")
        if self.kinetic_scheme not in (None, KINETIC_SPECTRAL, KINETIC_CRANK_NICOLSON):
            raise ValidationError(f"unknown kinetic scheme {self.kinetic_scheme!r}")


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


def galilean_boost(psi: WaveField, v, units: UnitsConfig = None) -> WaveField:
    """Multiply by exp(i m v.x / hbar); |psi| is untouched."""
    units = units or psi.units
    vv = np.broadcast_to(np.asarray(v, dtype=float), (psi.grid.dims,))
    phase = np.zeros(psi.grid.shape)
    for l, X in enumerate(psi.grid.meshgrid()):
        phase = phase + units.mass * vv[l] * X / units.hbar
    return psi.with_values(psi.values * np.exp(1j * phase))


def _W_params(F, model: DeformationModel, units: UnitsConfig) -> np.ndarray:
    """W_l = W(C F_l) for the Fisher information F of the instantaneous
    density; DomainError when any C F_l reaches the excluded edge 1/(4 beta)."""
    z = units.C * F
    if np.any(z >= model.z_max_W):
        worst = int(np.argmax(z))
        raise DomainError(
            f"C*F_{worst} = {z[worst]:.6g} >= 1/(4 beta) = {model.z_max_W:.6g}: "
            "state entered the physically excluded regime"
        )
    return np.atleast_1d(np.asarray(W_eval(z, model), dtype=float))


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
    """Full-dt kinetic sub-step: spectral multiplier or per-axis Crank-Nicolson."""

    def __init__(self, grid: Grid, dt: float, units: UnitsConfig, scheme: str):
        self.grid = grid
        self.scheme = scheme
        if scheme == KINETIC_SPECTRAL:
            if grid.boundary != BOUNDARY_PERIODIC:
                raise ValidationError("spectral kinetic step requires a periodic grid")
            k2 = np.zeros(grid.shape)
            for l in range(grid.dims):
                k = 2 * np.pi * np.fft.fftfreq(grid.points_per_dim[l], grid.spacing[l])
                shape = [1] * grid.dims
                shape[l] = -1
                k2 = k2 + (k**2).reshape(shape)
            self.multiplier = np.exp(-1j * units.hbar * k2 * dt / (2 * units.mass))
        elif scheme == KINETIC_CRANK_NICOLSON:
            if grid.boundary != BOUNDARY_DIRICHLET:
                raise ValidationError("Crank-Nicolson kinetic step requires a dirichlet grid")
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
        else:
            raise ValidationError(f"unknown kinetic scheme {scheme!r}")

    def apply(self, values: np.ndarray) -> np.ndarray:
        if self.scheme == KINETIC_SPECTRAL:
            return np.fft.ifftn(np.fft.fftn(values) * self.multiplier)
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


def _default_scheme(grid: Grid) -> str:
    return KINETIC_SPECTRAL if grid.boundary == BOUNDARY_PERIODIC else KINETIC_CRANK_NICOLSON


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

    The phase-rotation stability guard dt max|V + V_W| / hbar < 0.5 is
    checked on the initial state.  A DomainError raised mid-run truncates
    the trajectory instead of discarding it: the excluded regime is itself
    a reportable result.
    """
    grid = psi0.grid
    units = config.units
    scheme = config.kinetic_scheme or _default_scheme(grid)
    kinetic = _KineticPropagator(grid, config.dt, units, scheme)
    V = config.potential.evaluate(grid)

    # One modulus and one Fisher pass per step, on psi_mid: the closing
    # potential half-rotation is unimodular, so F[psi_mid] is also the Fisher
    # information of the step's end state.
    psi = psi0
    a = np.abs(psi.values)
    rho = a**2
    F = fisher_per_dim(rho, grid)
    W = _W_params(F, config.model, units)
    VW = _V_W(a, grid, W, units)
    _check_stability(V + VW, config.dt, units)

    times = [0.0]
    stats = [_field_stats(psi, rho, F)]
    W_hist = [W.copy()]
    snapshots = [(0.0, psi)]
    failed_step = None
    failure = None

    half = np.exp(-1j * (V + VW) * config.dt / (2 * units.hbar))
    for n in range(config.steps):
        try:
            vals = kinetic.apply(psi.values * half)
            a = np.abs(vals)
            F = fisher_per_dim(a**2, grid)
            if n % config.W_recompute_every == 0:
                W = _W_params(F, config.model, units)
                VW = _V_W(a, grid, W, units)
                half = np.exp(-1j * (V + VW) * config.dt / (2 * units.hbar))
            psi = psi.with_values(vals * half)
        except DomainError as err:
            failed_step = n
            failure = f"step {n}: {err}"
            break
        t = (n + 1) * config.dt
        times.append(t)
        stats.append(_field_stats(psi, density(psi), F))
        W_hist.append(W.copy())
        if config.snapshot_every and (n + 1) % config.snapshot_every == 0:
            snapshots.append((t, psi))
    if not snapshots or snapshots[-1][0] != times[-1]:
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
