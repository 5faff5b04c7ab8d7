"""Norm-preserving propagation of the Fisher-coupled nonlinear wave equation.

Strang splitting with the nonlinearity treated as a real state-dependent
potential: within a step the coefficients W_l are frozen, so both potential
half-rotations are exactly unimodular: cos + i sin of the real angle
-(V + V_W) dt / (2 hbar).  The kinetic sub-step follows the grid
boundary: an exact spectral multiplier (periodic), a unitary Crank-Nicolson
solve (dirichlet).  W_l is recomputed from |psi| after the kinetic sub-step
(midpoint flavor), which keeps the scheme second order in dt.

W_l acts on axis l only where 1 + W_l != 1 (_acts): that is exactly where
fields.hopping's coupling (1 + W_l) hbar^2 / (2 m dx_l^2) differs from its
W = 0 value, so a W_l below 2^-53, such as a plane wave's, whose Fisher
information is rounding, deforms nothing and adds no V_W to the half-step
phase.  W is still computed for every step, and recorded.

The units are the state's: evolve propagates with the hbar and m of psi0,
which its statistics and snapshots carry.

Each run allocates its arrays once: a workspace holding the kinetic
sub-step's input, the half-step phase, the modulus, the half-step angle and
the Fisher pass's scratch (whose two float arrays also hold V_W's curvature
and its shared denominator), the statistics blocks whose rows hold the state
and its density (on a free ring also its spectrum), and the kinetic
propagator's own spectrum or Crank-Nicolson buffers.  A step writes into
them with out= and in-place ufuncs and allocates no array of the grid's
size (its FFTs are Grid.transforms): large grids fault no fresh pages.  C
is read once per run.  What a run hands out (snapshots, psi_final) are
copies.

Statistics are not computed inside the loop.  A step writes its end state
and its density |psi_mid|^2 (which its Fisher pass reads, and which is the
end state's to rounding: the closing half-rotation is unimodular) into the
next rows of blocks of at most 128 KiB of states (_STATS_BLOCK_BYTES).  One
vectorized pass computes a block's rows: of a full block before the next
step, and of the last block at the end of the run.

A run has one mode, which W(psi0) picks.  Where it acts on no axis the run
is linear: the half-step phase is V's alone, built once, and a block's F
and W wait for one stacked Fisher pass and one W_eval call before its
statistics.  On a free ring (periodic, no potential) that phase is 1 and
psi_end = psi_mid = ifft(M fft(psi)): a linear step writes M S of psi's
carried spectrum S into a row of the block's spectra, which go back in one
stacked inverse transform (a snapshot's row at once) and give the momentum
moments their |S|^2.  Where W(psi0) acts, every
step resolves its F and W and rebuilds the half-step phase.  A linear run
whose stacked pass meets a W that acts, or a DomainError, had a stale
half-step phase from that row on: it returns nothing, and the run starts
again from psi0, per step.

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
import operator
from dataclasses import dataclass, replace

import numpy as np

from .deformation import DeformationModel, UnitsConfig, W_eval
from .errors import DomainError, ValidationError
from .fields import (
    BOUNDARY_PERIODIC,
    EPS_NODE_FRAC,
    Grid,
    WaveField,
    _curvature_ratio,
    _divide_complex,
    _field_stats,
    _stats_work,
    _stencil,
    field_stats,  # noqa: F401  (bench/ traces it under this name)
    fisher_per_dim,
    galilean_boost,  # noqa: F401  (also public under this module)
    hopping,
)
from .stationary import PotentialSpec, _lapack

# Bound on the states evolve holds before it computes their statistics; a
# block has at least one row.  Its densities and its statistics pass's work
# arrays have the block's shape (three times its bytes), allocated with the run.
# Larger blocks were measured to gain nothing per row.
_STATS_BLOCK_BYTES = 128 * 1024


@dataclass(frozen=True)
class EvolutionConfig:
    """Step size, step count, deformation model and potential of a run.

    It holds no units: evolve takes hbar and m from the state it propagates.
    """

    dt: float
    steps: int
    model: DeformationModel
    potential: PotentialSpec
    snapshot_every: int = 0  # 0: keep only initial and final snapshots

    def __post_init__(self):
        if not 0 < self.dt < math.inf:  # negated, so that nan fails it too
            raise ValidationError("dt must be positive and finite")
        for name in ("steps", "snapshot_every"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValidationError(f"{name} must be an integer") from None
        if self.steps < 1:
            raise ValidationError("steps must be at least 1")
        if self.snapshot_every < 0:
            raise ValidationError("snapshot_every must be nonnegative")


@dataclass
class Trajectory:
    """Recorded time series of an evolution run, and config, the EvolutionConfig it ran.

    When a step raises DomainError, on entering the excluded regime
    (C F_l >= 1/(4 beta)) or on a Fisher information that is no longer finite
    (a state that blew up), the trajectory is returned truncated, with
    failed_step and failure set.
    """

    times: np.ndarray
    stats: list
    snapshots: list  # (time, WaveField) pairs
    W_history: np.ndarray
    psi_final: WaveField
    config: EvolutionConfig
    failed_step: int = None
    failure: str = None

    @property
    def norms(self) -> np.ndarray:
        return np.array([s.norm for s in self.stats])


def _W_params(F: list, model: DeformationModel, C: float) -> list:
    """W_l = W(C F_l), as Python floats, for C = units.C and the per-axis
    Fisher information F of the instantaneous density.  W_eval owns the domain
    edge: its DomainError names the excluded regime when a C F_l reaches
    1/(4 beta), and not when an overflowed F made C F_l infinite."""
    # one W_eval call per axis, on a float, which W_eval returns as a float
    # without building arrays
    return [W_eval(C * f, model) for f in F]


def _acts(w: float) -> bool:
    """Whether W_l = w deforms axis l: 1 + w != 1, exactly where
    fields.hopping's (1 + W) hbar^2 / (2 m dx^2) differs from its W = 0
    value.  The one test of it: the half-step phase, evolve's choice of
    mode, its linear runs' stacked passes and effective_potential all read
    it."""
    return 1.0 + w != 1.0


def effective_potential(psi: WaveField, model: DeformationModel) -> np.ndarray:
    """V_W(x) = -(hbar^2/2m) sum_l W_l r_l(x) with r_l the |psi| curvature ratio,
    in the units of psi, summed over the axes where W_l acts (1 + W_l != 1):
    exactly zero for a state whose every W_l is below 2^-53, such as a plane
    wave."""
    W = _W_params(fisher_per_dim(psi).tolist(), model, psi.units.C)
    a, out = np.abs(psi.values), np.zeros(psi.grid.shape)
    pref = -(psi.units.hbar**2) / (2 * psi.units.mass)
    for l in range(psi.grid.dims):
        if _acts(W[l]):
            out += pref * W[l] * _curvature_ratio(a, psi.grid, l)
    return out


def _half_phase(a: np.ndarray, grid: Grid, theta_V, fold, W, theta: np.ndarray,
                out: np.ndarray, scratch) -> None:
    """cos(theta) + i sin(theta) into out, for the half-step's real angle
    theta = -(V + V_W) dt / (2 hbar), which it writes into theta.

    theta_V is V's share, or None for a potential that is zero everywhere.
    V_W's share is sum_l fold[l] W[l] s_l / max(a, eps peak), with s_l the
    second difference of the modulus a along axis l and fold[l] the
    per-run (hbar^2/2m)(dt/2 hbar) / dx_l^2: every axis shares one peak of a
    and one clamped denominator, divided once.  Only the axes where W_l acts
    (_acts: 1 + W_l != 1) fold in; with none, theta is V's share alone.
    scratch is two float work arrays.
    """
    ratio, denom = scratch
    axes = [l for l in range(grid.dims) if _acts(W[l])]
    peak = np.maximum.reduce(a, axis=None)  # a.max() without its wrapper
    if axes and peak > 0.0:
        for i, l in enumerate(axes):
            _stencil(a, grid, l, ratio, second=True)
            np.multiply(ratio, fold[l] * W[l], out=ratio if i else theta)
            if i:
                theta += ratio
        np.maximum(a, EPS_NODE_FRAC * peak, out=denom)
        theta /= denom
        if theta_V is not None:
            theta += theta_V
    else:
        np.copyto(theta, 0.0 if theta_V is None else theta_V)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)


class _KineticPropagator:
    """Full-dt kinetic sub-step, spectral on periodic grids, else per-axis
    Crank-Nicolson, with its work arrays: one per evolve run.  coupling is
    each axis's hbar^2 / (2 m dx_l^2) from fields.hopping, its one owner,
    which rejects a coupling outside double precision on either boundary
    before any array is built; Crank-Nicolson's bands are made of it.  On a
    free ring a linear evolve run carries the spectrum itself: a step is
    multiplier times it."""

    def __init__(self, grid: Grid, dt: float, units: UnitsConfig):
        self.periodic = grid.boundary == BOUNDARY_PERIODIC
        self.coupling = [hopping(grid, units, l) for l in range(grid.dims)]
        if self.periodic:
            k2 = sum(k**2 for k in grid.sparse_wavenumbers)
            self.multiplier = np.exp(_divide_complex(-1j * units.hbar * k2 * dt, 2 * units.mass))
            self.spectrum = np.empty(grid.shape, complex)
            self.fft, self.ifft = grid.transforms
            return
        # Cayley factors per axis; the FD Laplacians along different axes
        # commute, so the per-axis product is unitary and second order.  The
        # matrices are constant: factor each once (LAPACK gttrf) and only
        # back-substitute (gttrs) per step.  Axis l's right-hand side
        # psi + i dt/(2 hbar) coef D_l psi, with D_l the stencil's second
        # difference, is written through a grid-order view into a buffer
        # that keeps l contiguous, which gttrs reads as columns and solves
        # in place; the last axis's buffer is in grid order and holds the
        # result.  LAPACK is loaded here, as only dirichlet runs need it,
        # and gttrs is kept so that no step looks it up.
        lapack = _lapack()
        zgttrf, self.gttrs = lapack.zgttrf, lapack.zgttrs
        self.axes = []
        source = None
        for l, coef in enumerate(self.coupling):
            n = grid.points_per_dim[l]
            scale = 1j * dt / (2 * units.hbar) * coef
            off = -scale * np.ones(n - 1)
            buffer = np.empty(grid.shape[:l] + grid.shape[l + 1:] + (n,), complex)
            rhs = np.moveaxis(buffer, -1, l)  # in grid order
            self.axes.append((l, source, rhs, scale,
                              zgttrf(off, 1.0 + 2 * scale * np.ones(n), off)[:5],
                              buffer.reshape(-1, n).T))
            source = rhs
        self.grid, self.result = grid, source

    def apply(self, values: np.ndarray) -> np.ndarray:
        """The sub-step of values, which it overwrites; the result is values
        itself (periodic) or the propagator's own buffer, valid until the
        next call."""
        if self.periodic:
            self.fft(values, out=self.spectrum)
            self.spectrum *= self.multiplier
            return self.ifft(self.spectrum, out=values)
        for l, source, rhs, scale, factors, columns in self.axes:
            source = values if source is None else source
            _stencil(source, self.grid, l, rhs, second=True)
            rhs *= scale
            rhs += source
            self.gttrs(*factors, columns, overwrite_b=True)
        return self.result


def _check_stability(theta: np.ndarray) -> None:
    """The phase-rotation guard dt max|V + V_W| / hbar < 0.5 on the half-step
    angle theta = -(V + V_W) dt / (2 hbar)."""
    limit = 2.0 * float(np.max(np.abs(theta)))
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
    end state and density |psi_mid|^2 are kept until _STATS_BLOCK_BYTES
    (128 KiB) of states are held, then the block goes through one vectorized
    pass.  The rows are those field_stats gives, to rounding.  W(psi0) picks
    the run's mode (module doc): linear where it acts on no axis, with F and
    W waiting for the block too and, on a free ring (periodic, no potential),
    the state's spectrum carried; else per step.

    The phase-rotation stability guard dt max|V + V_W| / hbar < 0.5 is
    checked on the initial state, whose samples must be finite.  Any
    DomainError raised mid-run, for the excluded regime or for a Fisher
    information that is no longer finite, truncates the trajectory instead
    of discarding it: either is a reportable result.
    """
    grid, units = psi0.grid, psi0.units
    if not np.all(np.isfinite(psi0.values)):
        raise ValidationError("psi0 has non-finite samples")
    kinetic = _KineticPropagator(grid, config.dt, units)
    dt, hbar, C, model = config.dt, units.hbar, units.C, config.model
    V = config.potential.evaluate(grid)  # a tabulated spec's own samples: not scaled in place
    theta_V = V * (-dt / (2 * hbar)) if V.any() else None  # a zero potential is not added
    # V_W's prefactor (hbar^2/2m)(dt/2 hbar) / dx_l^2 of each axis
    fold = [c * dt / (2 * hbar) for c in kinetic.coupling]

    # The run's workspace: each step writes into these arrays, and the
    # kinetic propagator into its own.  The state and its density live in
    # rows of the statistics blocks, where each step writes them.
    work = np.empty_like(psi0.values)  # the kinetic sub-step's input
    half = np.empty_like(psi0.values)  # the half-step phase
    a, theta = np.empty(grid.shape), np.empty(grid.shape)
    scratch = (np.empty(grid.shape), np.empty(grid.shape), np.empty(grid.shape, dtype=bool))
    # each step's end state, density and F wait in a block for their statistics
    block_rows = min(config.steps + 1, max(1, _STATS_BLOCK_BYTES // psi0.values.nbytes))
    block = np.empty((block_rows,) + grid.shape, complex)
    rho = np.empty(block.shape)
    stats_work = _stats_work(block.shape)
    # the stacked Fisher pass's scratch: leading bytes of the statistics work arrays
    stacked_work = tuple(w.reshape(-1).view(t)[:rho.size].reshape(rho.shape)
                         for w, t in zip(stats_work, (float, float, bool)))

    # One modulus per step and one Fisher pass per row, on psi_mid, whose F
    # is the end state's (the closing half-rotation is unimodular).
    np.abs(psi0.values, out=a)
    F0 = fisher_per_dim(np.square(a, out=rho[0]), grid, scratch=scratch).tolist()
    W0 = _W_params(F0, model, C)
    _half_phase(a, grid, theta_V, fold, W0, theta, half, scratch[:2])
    _check_stability(theta)

    def run(linear):
        """The trajectory from psi0, linear (F and W in stacked passes, half
        kept) or per step; None where a linear run's W acts or raises."""
        psi = block[0]
        np.copyto(psi, psi0.values)
        times, stats, W_hist, snapshots = [0.0], [], [W0], [(0.0, psi0)]
        failed_step = failure = None
        block_F = [F0]  # the resolved rows' F; the rows after them are pending
        rows, n = 1, 0  # rows in the block, steps taken
        # a free ring's half is 1: carry psi's spectrum S, one row per block row
        carry = linear and kinetic.periodic and theta_V is None
        if carry:
            spectra = np.empty(block.shape, complex)
            S = kinetic.fft(psi, out=spectra[0])

        def flush():
            rows = len(block_F)
            stats.extend(_field_stats(block[:rows], rho[:rows], grid, units, block_F,
                                      tuple(w[:rows] for w in stats_work),
                                      spectra[:rows] if carry else None))
            block_F.clear()

        while True:
            if (n == config.steps or rows == len(block)) and len(block_F) < rows:
                p = len(block_F)  # resolve the pending rows
                if carry:  # they hold only their spectra
                    kinetic.ifft(spectra[p:rows], out=block[p:rows])
                    np.square(np.abs(block[p:rows], out=rho[p:rows]), out=rho[p:rows])
                try:
                    F = fisher_per_dim(rho[p:rows], grid, scratch=tuple(
                        w[:rows - p] for w in stacked_work))
                    W = W_eval(C * F, model)  # one call on the block's rows
                except DomainError:
                    return None
                if _acts(W).any():
                    return None
                block_F += F.tolist()
                W_hist += W.tolist()
            if n == config.steps:
                break
            if rows == len(block):
                flush()
                rows = 0
            try:
                if carry:  # psi_mid is the end state, transformed with its block
                    S = np.multiply(S, kinetic.multiplier, out=spectra[rows])
                    psi = block[rows]
                else:
                    np.multiply(psi, half, out=work)
                    mid = kinetic.apply(work)
                    np.abs(mid, out=a)
                    np.square(a, out=rho[rows])
                    if not linear:
                        F = fisher_per_dim(rho[rows], grid, scratch=scratch).tolist()
                        W = _W_params(F, model, C)
                        _half_phase(a, grid, theta_V, fold, W, theta, half, scratch[:2])
                        block_F.append(F)
                        W_hist.append(W)
                    psi = np.multiply(mid, half, out=block[rows])
            except DomainError as err:
                failed_step = n
                failure = f"step {n}: {err}"
                break
            n, rows = n + 1, rows + 1
            times.append(n * dt)
            if config.snapshot_every and n % config.snapshot_every == 0:
                if carry:  # transformed again with its block
                    kinetic.ifft(S, out=psi)
                snapshots.append((times[-1], psi0.with_values(psi.copy())))
        if block_F:  # empty after a DomainError that followed a flush
            flush()
        final = psi0.with_values(psi.copy())
        if snapshots[-1][0] != times[-1]:
            snapshots.append((times[-1], final))
        return Trajectory(
            times=np.array(times),
            stats=stats,
            snapshots=snapshots,
            W_history=np.array(W_hist),
            psi_final=final,
            config=config,
            failed_step=failed_step,
            failure=failure,
        )

    if not any(map(_acts, W0)):
        traj = run(True)
        if traj is not None:
            return traj
        # start again per step; the linear run overwrote psi0's density in row 0
        np.square(np.abs(psi0.values, out=a), out=rho[0])
    return run(False)
