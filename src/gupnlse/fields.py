"""Wavefunctions and densities on uniform grids, with the functionals the theory needs.

Conventions:

* ``dirichlet`` grids sample an open box; the state is taken to vanish at
  ghost nodes one spacing outside the sampled points.  Quadrature is the
  trapezoid rule.
* ``periodic`` grids sample one period with the right endpoint omitted.
  Quadrature is the rectangle rule (spectrally accurate on periodic data).
* Derivatives are second-order central differences, with the same ghost
  zeros on dirichlet grids, so -i d_l is symmetric under inner_product;
  momentum statistics use spectral derivatives on periodic grids.  _stencil
  owns the neighbour shift and the second difference: the derivatives, the
  Hamiltonian, evolve's V_W and Crank-Nicolson's right-hand side all take it.
* Grid.transforms owns the FFT that momentum statistics and evolve's
  spectral kinetic step share: np.fft's own pocketfft gufuncs, one axis at a
  time in every dimension.
* hopping(grid, units, l, W) = (1 + W) hbar^2 / (2 m dx_l^2) owns the
  coupling of neighbours under -(hbar^2/2m)(1 + W_l) d^2_l, and its range
  check: the Hamiltonian, Crank-Nicolson and evolve's V_W all read it.
  evolve's V_W acts on the axes where that coupling moves, 1 + W_l != 1.
* _madelung_phase owns arg psi: its unwrap and the node test.  |psi| below
  SIGNIFICANT_FRAC of its peak is tail; a node is a wrapped step above
  NODE_JUMP_RAD between significant neighbours, or a line whose significant
  points form more than one run.  On periodic grids the seam's end points
  are neighbours, and each unwrap starts where its lines are tail, if any.
* Arrays are addressed by grid axis from the right: the stencils, the
  Fisher information (a row's own bits) and the statistics also take a
  stack of states with one leading axis (time, in ``evolve``).
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .deformation import UnitsConfig
from .errors import (
    CommensurabilityError,
    DomainError,
    NodeError,
    SupportError,
    ValidationError,
    ZeroFieldError,
)

BOUNDARY_DIRICHLET = "dirichlet"
BOUNDARY_PERIODIC = "periodic"

# Grid points with density below this fraction of the peak contribute zero
# to the Fisher quadrature; analytic tails satisfy (drho)^2/rho -> 0 there.
RHO_FLOOR_FRAC = 1e-13

# Regularization of 1/|psi| in the curvature ratio.  States in scope are
# nodeless; the floor only touches far tails.
EPS_NODE_FRAC = 1e-12

# |psi| below this fraction of its peak is tail: its phase is noise but
# carries no probability, so the node test and the unwrap pass over it
SIGNIFICANT_FRAC = 1e-8
# wrapped phase step between significant neighbours that signals a node
NODE_JUMP_RAD = 2.8


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _counts(points) -> tuple:
    try:
        return tuple(map(operator.index, points))
    except TypeError:
        raise ValidationError(f"point counts must be integers, not {points!r}") from None


@dataclass(frozen=True)
class Grid:
    """Uniform sampling grid in 1 to 3 dimensions."""

    points_per_dim: tuple
    spacing: tuple
    origin: tuple
    boundary: str = BOUNDARY_DIRICHLET

    def __post_init__(self):
        object.__setattr__(self, "points_per_dim", _counts(self.points_per_dim))
        object.__setattr__(self, "spacing", tuple(float(d) for d in self.spacing))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        if not 1 <= self.dims <= 3:
            raise ValidationError("grids support 1 to 3 dimensions")
        if len(self.spacing) != self.dims or len(self.origin) != self.dims:
            raise ValidationError("points_per_dim, spacing, origin must have equal length")
        if any(n < 16 for n in self.points_per_dim):
            raise ValidationError("at least 16 points per dimension")
        if not (all(0 < d < math.inf for d in self.spacing)  # negated: nan fails it too
                and all(map(math.isfinite, self.origin))):
            raise ValidationError("spacing must be positive and finite, and origin finite")
        if not all(math.isfinite(o + d * (n - 1))  # Python floats: inf, with no numpy warning
                   for n, d, o in zip(self.points_per_dim, self.spacing, self.origin)):
            raise ValidationError("the far end origin + spacing (n - 1) must be finite")
        if self.boundary not in (BOUNDARY_DIRICHLET, BOUNDARY_PERIODIC):
            raise ValidationError(f"unknown boundary {self.boundary!r}")

    @classmethod
    def centered(cls, extent, points, dims: int = 1, boundary: str = BOUNDARY_DIRICHLET) -> "Grid":
        """Grid spanning [-extent, extent] per dimension, centered on 0.

        ``extent`` and ``points`` may be scalars (shared by all dimensions)
        or per-dimension sequences.  Periodic grids omit the right endpoint.
        The spacing is formed on Python floats: a span past the double range
        reaches Grid's check as inf, with no numpy overflow warning.
        """
        ext = np.broadcast_to(np.asarray(extent, dtype=float), (dims,)).tolist()
        npt = _counts(np.broadcast_to(np.asarray(points, dtype=object), (dims,)).tolist())
        cells = [n if boundary == BOUNDARY_PERIODIC else n - 1 for n in npt]
        spacing = tuple(2 * L / max(c, 1) for L, c in zip(ext, cells))
        return cls(tuple(npt), spacing, tuple(-L for L in ext), boundary)

    @property
    def dims(self) -> int:
        return len(self.points_per_dim)

    @property
    def shape(self) -> tuple:
        return self.points_per_dim

    @property
    def total_points(self) -> int:
        return int(np.prod(self.points_per_dim))

    def axis(self, l: int) -> np.ndarray:
        """Coordinate samples along dimension l."""
        n, d, o = self.points_per_dim[l], self.spacing[l], self.origin[l]
        return o + d * np.arange(n)

    def axes(self) -> list:
        return [self.axis(l) for l in range(self.dims)]

    def meshgrid(self) -> list:
        """Dense coordinate arrays, freshly allocated on every call."""
        return np.meshgrid(*self.axes(), indexing="ij")

    @cached_property
    def sparse_axes(self) -> tuple:
        """Read-only coordinate axes shaped to broadcast against the grid."""
        return _read_only(*np.meshgrid(*self.axes(), indexing="ij", sparse=True))

    @cached_property
    def wavenumbers(self) -> tuple:
        """Read-only angular wavenumbers 2 pi fftfreq(n, d) of every axis,
        in FFT order."""
        return _read_only(*(2 * np.pi * np.fft.fftfreq(n, d)
                            for n, d in zip(self.points_per_dim, self.spacing)))

    @cached_property
    def sparse_wavenumbers(self) -> tuple:
        """wavenumbers shaped to broadcast against the grid (read-only)."""
        return _read_only(*np.meshgrid(*self.wavenumbers, indexing="ij", sparse=True))

    @cached_property
    def transforms(self) -> tuple:
        """(forward, inverse) FFTs over the grid's axes, an array's trailing
        ones, called as f(a, out=out): the pocketfft gufuncs under np.fft.fft
        and ifft (numpy >= 2.0) along each axis in turn, last axis first, with
        the factors 1 and 1/n_l those pass, as fftn and ifftn apply them.  So
        their values are fftn's and ifftn's bit for bit, without wrappers that
        cost as much as a short transform."""
        axes = [[(l,), (), (l,)] for l in range(-1, -self.dims - 1, -1)]

        def along(ufunc, factors):
            def transform(a, out):
                for ax, fct in zip(axes, factors):
                    a = ufunc(a, fct, axes=ax, out=out)
                return a
            return transform
        return (along(_pocketfft.fft, [1.0] * self.dims),
                along(_pocketfft.ifft, [1.0 / n for n in reversed(self.points_per_dim)]))

    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_weights(self, l: int) -> np.ndarray:
        """1D quadrature weights: trapezoid on dirichlet, rectangle on periodic."""
        n, d = self.points_per_dim[l], self.spacing[l]
        w = np.full(n, d)
        if self.boundary == BOUNDARY_DIRICHLET:
            w[0] = w[-1] = d / 2
        return w

    def quad_weights(self) -> np.ndarray:
        """Tensor-product quadrature weights with the grid's shape (read-only)."""
        return self._quad_weights

    @cached_property
    def _quad_weights(self) -> np.ndarray:
        w = self.axis_weights(0)
        for l in range(1, self.dims):
            w = np.multiply.outer(w, self.axis_weights(l))
        w.flags.writeable = False
        return w

    def header(self) -> dict:
        """JSON-serializable grid metadata; round-trips bit-exactly."""
        return {
            "points_per_dim": list(self.points_per_dim),
            "spacing": list(self.spacing),
            "origin": list(self.origin),
            "boundary": self.boundary,
        }

    @classmethod
    def from_header(cls, header: dict) -> "Grid":
        return cls(
            tuple(header["points_per_dim"]),
            tuple(header["spacing"]),
            tuple(header["origin"]),
            header["boundary"],
        )


def integrate(samples: np.ndarray, grid: Grid) -> float:
    return float(np.sum(np.asarray(samples) * grid.quad_weights()))


def inner_product(f: np.ndarray, g: np.ndarray, grid: Grid) -> complex:
    """Plain cell-volume inner product <f, g>; the discrete operators of this
    package are symmetric with respect to it on either boundary type."""
    return complex(np.sum(np.conj(f) * g) * grid.cell_volume())


@lru_cache(maxsize=None)
def _stencil_index(lead: int, trail: int) -> tuple:
    """_stencil's indices along an axis with lead axes before it and trail
    after it: the interior, its upper and lower neighbours, the whole axis
    but its last and but its first point, and points 0, 1, -2 and -1.  A
    lone index is given bare, which numpy reads faster."""
    def at(i):
        index = (slice(None),) * lead + (i,) + (slice(None),) * trail
        return index if len(index) > 1 else i
    return tuple(at(i) for i in (slice(1, -1), slice(2, None), slice(-2), slice(-1),
                                 slice(1, None), 0, 1, -2, -1))


def _stencil(f: np.ndarray, grid: Grid, l: int, out: np.ndarray, second: bool = False) -> np.ndarray:
    """Central stencil along grid axis l, written from slices of f into out
    (f's shape, never f itself): f[i+1] - f[i-1], or, when second, the second
    difference (f[i+1] - 2 f[i]) + f[i-1], with 2 f first written into out.
    Past the ends f reads wrapped on periodic grids and as ghost zeros on
    dirichlet grids.  Leading axes of f pass through.  Off an array's leading
    axis, where numpy buffers slices strided in two dimensions, C-contiguous
    operands take flat views offset by the axis stride s: the end planes,
    where an offset wraps into the next line, are written last, and every
    value is the slices' own."""
    trail = grid.dims - 1 - l
    lead = f.ndim - 1 - trail
    inner, up, down, lo, hi, first, second_point, penult, last = _stencil_index(lead, trail)
    if grid.boundary == BOUNDARY_PERIODIC:
        below_first, above_last = f[last], f[first]
    else:
        below_first = above_last = 0.0
    if second:
        np.multiply(f, 2.0, out=out)
    if lead and f.flags.c_contiguous and out.flags.c_contiguous:
        s, ff, of = math.prod(f.shape[lead + 1:]), f.reshape(-1), out.reshape(-1)
        if second:
            end = above_last - out[last]
            np.subtract(ff[s:], of[:-s], out=of[:-s])
            start = out[first] + below_first
            np.add(of[s:], ff[:-s], out=of[s:])
            np.add(end, f[penult], out=out[last])
            out[first] = start
        else:
            np.subtract(ff[2 * s:], ff[:-2 * s], out=of[s:-s])
            out[first] = f[second_point] - below_first
            out[last] = above_last - f[penult]
    elif second:
        np.subtract(f[hi], out[lo], out=out[lo])
        out[last] = above_last - out[last]
        np.add(out[hi], f[lo], out=out[hi])
        out[first] += below_first
    else:
        np.subtract(f[up], f[down], out=out[inner])
        out[first] = f[second_point] - below_first
        out[last] = above_last - f[penult]
    return out


def _divide_complex(z: np.ndarray, c: float) -> np.ndarray:
    """z /= c for a C-contiguous complex z and a real c, as z's float view
    times 1/c: numpy's z / c computes (re + im 0, im - re 0) (1/c), the same
    values but for the sign of an exact zero, at several times the cost."""
    view = z.view(z.real.dtype)
    view *= 1 / c
    return z


def _diff1(f: np.ndarray, grid: Grid, l: int, out: np.ndarray = None) -> np.ndarray:
    """Central first derivative along axis l (ghost zeros on dirichlet), into
    out when given."""
    if out is None:
        out = np.empty(f.shape, dtype=np.result_type(f, 1.0))
    _stencil(f, grid, l, out)
    if out.dtype.kind == "c":
        return _divide_complex(out, 2 * grid.spacing[l])
    out /= 2 * grid.spacing[l]
    return out


def _diff2(f: np.ndarray, grid: Grid, l: int, out: np.ndarray = None) -> np.ndarray:
    """Central second derivative along axis l (ghost zeros on dirichlet),
    into out when given."""
    if out is None:
        out = np.empty(f.shape, dtype=np.result_type(f, 1.0))
    _stencil(f, grid, l, out, second=True)
    out /= grid.spacing[l] ** 2
    return out


def _axis_index(grid: Grid, l: int) -> int:
    """l, when it is an axis of grid; else ValidationError."""
    if not 0 <= l < grid.dims:
        raise ValidationError(f"axis index {l} outside [0, {grid.dims}) of a {grid.dims}D grid")
    return l


def hopping(grid: Grid, units: UnitsConfig, l: int, W: float = 0.0) -> float:
    """(1 + W) hbar^2 / (2 m dx_l^2), the coupling of neighbouring points
    along axis l (see the module conventions); ValidationError when it is
    not finite and positive, as when dx^2 underflows to 0 or overflows."""
    d = grid.spacing[_axis_index(grid, l)]
    try:
        coef = (1.0 + W) * units.hbar**2 / (2 * units.mass * d**2)
    except (ZeroDivisionError, OverflowError):  # Python's float ** raises, not inf
        coef = math.nan
    if not 0 < coef < math.inf:
        raise ValidationError(f"hopping hbar^2 (1 + W) / (2 m dx^2) along axis {l} is not finite "
                              f"and positive at dx = {d:g}, hbar = {units.hbar:g}, "
                              f"m = {units.mass:g}: outside the range of double precision")
    return coef


@dataclass(frozen=True)
class WaveField:
    """Complex wavefunction samples on a grid.  Treat values as immutable."""

    grid: Grid
    values: np.ndarray
    units: UnitsConfig = field(default_factory=UnitsConfig)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.grid.shape:
            raise ValidationError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray) -> "WaveField":
        return WaveField(self.grid, values, self.units)

    def norm(self) -> float:
        return math.sqrt(integrate(np.abs(self.values) ** 2, self.grid))


class FieldStats(NamedTuple):
    """Per-direction statistics of a wavefunction.

    delta_x_small is 1/sqrt(F) and delta_N_w is sqrt(C F); their product is
    hbar/2 identically wherever F > 0.  For states with F = 0 (plane waves)
    delta_x_small is reported as inf.
    """

    norm: float
    mean_x: tuple
    delta_x: tuple
    mean_p: tuple
    delta_p: tuple
    fisher: tuple
    delta_x_small: tuple
    delta_N_w: tuple


def normalize(psi: WaveField) -> WaveField:
    """Scale to unit L2 norm under the grid quadrature."""
    n = psi.norm()
    if not n > 1e-300:
        raise ZeroFieldError("field norm below 1e-300")
    return psi.with_values(_divide_complex(psi.values.copy(), n))


def density(psi: WaveField) -> np.ndarray:
    return np.abs(psi.values) ** 2


def fisher_information(rho: np.ndarray, l: int, grid: Grid) -> float:
    """Quadrature of (1/rho)(d rho/dx_l)^2 with central differences.

    Points where rho < RHO_FLOOR_FRAC * max(rho) contribute zero, which
    regularizes vanishing tails without biasing smooth states.  A density
    with a nan or infinite sample raises DomainError.
    """
    return _fisher(np.asarray(rho, dtype=float), grid, (_axis_index(grid, l),))[0]


def fisher_per_dim(psi_or_rho, grid: Grid = None, *, scratch=None) -> np.ndarray:
    """Fisher information along every dimension of a field or density, or
    [row, axis] of a stack of densities (rows, *grid shape), bit for bit.

    scratch: optional work arrays of the density's shape, two float and one
    bool, that the pass overwrites instead of allocating its own.
    """
    if isinstance(psi_or_rho, WaveField):
        rho = density(psi_or_rho)
        grid = psi_or_rho.grid
    else:
        rho = np.asarray(psi_or_rho, dtype=float)
        if grid is None:
            raise ValidationError("grid required for raw density samples")
    return np.array(_fisher(rho, grid, range(grid.dims), scratch))


def _fisher(rho: np.ndarray, grid: Grid, axes, scratch=None) -> list:
    """fisher_information of rho along each of axes, [axis] or, for a stack,
    [row][axis].  Every axis shares a row's floor and mask, infinite without
    a positive peak, and a row's sum adds in the order of one density's."""
    rows = len(rho) if rho.ndim > grid.dims else 0  # 0: one density
    if rows:
        peak = np.maximum.reduce(rho.reshape(rows, -1), axis=1)
        floor = np.where(peak > 0.0, RHO_FLOOR_FRAC * peak, math.inf)
        peak, floor = np.maximum.reduce(peak), floor.reshape((rows,) + (1,) * grid.dims)
    else:
        peak = np.maximum.reduce(rho, axis=None)  # rho.max() without its wrapper
        floor = RHO_FLOOR_FRAC * peak if peak > 0.0 else math.inf
    if not math.isfinite(peak):  # max propagates nan
        raise DomainError("density has non-finite samples")
    drho, denom, below = scratch or (np.empty_like(rho), np.empty_like(rho),
                                     np.empty(rho.shape, dtype=bool))
    np.maximum(rho, floor, out=denom)
    np.less(rho, floor, out=below)
    w = grid.quad_weights()
    out = []
    for l in axes:
        _diff1(rho, grid, l, drho)
        np.square(drho, out=drho)
        drho /= denom
        np.copyto(drho, 0.0, where=below)
        drho *= w
        out.append(np.add.reduce(drho.reshape(rows, -1), axis=1) if rows
                   else float(np.add.reduce(drho, axis=None)))  # drho.sum()
    return np.transpose(out).tolist() if rows else out


def position_stats(psi: WaveField):
    """Mean and standard deviation of position per dimension."""
    rho_w = (density(psi) * psi.grid.quad_weights())[None]
    means, deltas = _position_stats(rho_w, psi.grid, _grid_sum(rho_w))
    return list(means[0]), list(deltas[0])


def _grid_sum(a: np.ndarray) -> np.ndarray:
    """Sum of every row of a stack (rows, *grid shape): one pairwise sum per
    row over its contiguous samples, the order np.sum takes on one state."""
    return a.reshape(len(a), -1).sum(axis=1)


def _position_stats(rho_w: np.ndarray, grid: Grid, total: np.ndarray):
    """Position means and deviations, [row](axis,...), of a stack of weighted
    densities rho_w = rho * quad_weights (rows, *grid shape) with integrals
    total (rows,).  Each axis's moments are those of its marginal, the sum of
    rho_w over the other axes (rho_w itself in 1D): one grid pass per axis,
    and row sums that do not depend on how many rows the stack holds."""
    axes = tuple(range(-grid.dims, 0))
    means, deltas = [], []
    for l, X in enumerate(grid.sparse_axes):
        x = X.reshape(-1)
        marginal = rho_w if grid.dims == 1 else rho_w.sum(
            axis=tuple(a for a in axes if a != l - grid.dims))
        m = (marginal * x).sum(axis=1) / total
        var = (marginal * np.square(x - m[:, None])).sum(axis=1) / total
        means.append(m.tolist())
        deltas.append(np.sqrt(np.maximum(var, 0.0)).tolist())
    return list(zip(*means)), list(zip(*deltas))


def momentum_stats(psi: WaveField):
    """Mean and standard deviation of -i hbar d_l per dimension.

    Spectral on periodic grids, where Parseval turns <p_l> and <p_l^2> into
    moments of k_l over |fft(psi)|^2; on dirichlet grids, central differences
    with the ghost zeros of every other operator here, which make
    p_l = -i hbar d_l Hermitian under inner_product.  The second moment is
    evaluated as hbar^2 INT |d_l psi|^2, the quadratic-form expression that
    stays nonnegative.
    """
    values = psi.values[None]
    total = _grid_sum(np.abs(values) ** 2 * psi.grid.quad_weights())
    means, deltas = _momentum_stats(values, psi.grid, psi.units.hbar, total)
    return list(means[0]), list(deltas[0])


def _momentum_stats(values: np.ndarray, grid: Grid, hbar: float, total: np.ndarray,
                    work=None, spectra=None):
    """Momentum means and deviations, [row](axis,...), of a stack of states
    values (rows, *grid shape) with norms squared total (rows,); periodic
    grids take their own total from the rows' spectra, transformed when None.
    work, when given, is _stats_work(values.shape), which the pass overwrites."""
    real, spec, product = work or _stats_work(values.shape)
    w = grid.quad_weights()
    axes = tuple(range(-grid.dims, 0))
    if grid.boundary == BOUNDARY_PERIODIC:
        power = np.abs(grid.transforms[0](values, out=spec) if spectra is None else spectra,
                       out=real)
        np.square(power, out=power)
        total = _grid_sum(power)  # Parseval: N times INT |psi|^2 / dV
    p1, p2 = [], []
    for l in range(grid.dims):
        if grid.boundary == BOUNDARY_PERIODIC:
            k = grid.wavenumbers[l]
            marginal = power if grid.dims == 1 else power.sum(
                axis=tuple(a for a in axes if a != l - grid.dims))
            p1.append((hbar * (marginal * k).sum(axis=1) / total).tolist())
            p2.append(hbar**2 * (marginal * k**2).sum(axis=1) / total)
        else:
            dpsi = _diff1(values, grid, l, spec)
            np.conjugate(values, out=product)
            product *= dpsi
            product *= w
            p1.append((hbar * np.imag(_grid_sum(product)) / total).tolist())
            np.abs(dpsi, out=real)
            np.square(real, out=real)
            real *= w
            p2.append(hbar**2 * _grid_sum(real) / total)
    # finished on Python floats, where p**2 calls pow(): numpy's p*p can
    # differ from it in the last bit, and the deviations stay those that
    # field_stats has always reported
    deltas = [[math.sqrt(max(q - p**2, 0.0)) for p, q in zip(means, squares.tolist())]
              for means, squares in zip(p1, p2)]
    return list(zip(*p1)), list(zip(*deltas))


def field_stats(psi: WaveField) -> FieldStats:
    rho = density(psi)
    F = fisher_per_dim(rho, psi.grid)
    return _field_stats(psi.values[None], rho[None], psi.grid, psi.units, [F])[0]


def _stats_work(shape: tuple) -> tuple:
    """_field_stats's work arrays for a stack of that shape: one float, two complex."""
    return np.empty(shape), np.empty(shape, complex), np.empty(shape, complex)


def _field_stats(values: np.ndarray, rho: np.ndarray, grid: Grid, units: UnitsConfig, F,
                 work=None, spectra=None) -> list:
    """field_stats of every row of a stack of states values (rows, *grid
    shape), given what callers hold and need not recompute: the densities
    rho = |values|^2, the Fisher information F[row] and, on a ring, maybe the
    rows' spectra, read in place of their forward transform (the same to
    rounding).  work, when given, is _stats_work(values.shape), which the
    pass overwrites instead of allocating its own."""
    work = work or _stats_work(values.shape)
    real = work[0]
    np.multiply(rho, grid.quad_weights(), out=real)
    total = _grid_sum(real)
    mean_x, delta_x = _position_stats(real, grid, total)
    mean_p, delta_p = _momentum_stats(values, grid, units.hbar, total, work, spectra)
    # the derived columns, a block at a time: IEEE sqrt and division round
    # as math.sqrt and Python's / do
    F = np.asarray(F, dtype=float)
    small = np.divide(1.0, np.sqrt(F), out=np.full_like(F, math.inf), where=F > 0)
    derived = (zip(*c.T.tolist()) for c in (F, small, np.sqrt(units.C * F)))
    return list(map(FieldStats, np.sqrt(total).tolist(), mean_x, delta_x, mean_p, delta_p,
                    *derived))


def rescale_density(rho: np.ndarray, kappa: float, grid: Grid) -> np.ndarray:
    """Rescaled density kappa^n rho(kappa x) on the same grid.

    Multilinear interpolation, as np.interp along one axis at a time, each
    pass scaled by kappa; points mapping outside the grid read as zero.
    kappa must be positive and finite (else ValidationError).  Raises
    SupportError when more than 1e-8 of the mass lives outside the
    shrunken window [kappa * min, kappa * max] and would be truncated.
    """
    if not 0 < kappa < math.inf:  # negated, so that nan fails it too
        raise ValidationError("kappa must be positive and finite")
    rho = np.asarray(rho, dtype=float)
    mass = integrate(rho, grid)
    if mass > 0:
        outside = False
        for X in grid.sparse_axes:
            outside = outside | (X < kappa * X.min()) | (X > kappa * X.max())
        lost = integrate(rho * outside, grid)
        if lost > 1e-8 * mass:
            raise SupportError(
                f"rescaling by kappa={kappa:g} truncates {lost / mass:.3e} of the mass"
            )
    for l, x in enumerate(grid.axes()):
        rho = kappa * np.apply_along_axis(
            lambda line: np.interp(kappa * x, x, line, left=0.0, right=0.0), l, rho)
    return rho


def abs_curvature_ratio(psi: WaveField, l: int) -> np.ndarray:
    """Pointwise (d^2|psi|/dx_l^2) / |psi|, regularized at tiny |psi|.

    Depends only on |psi|; any phase factor drops out.
    """
    return _curvature_ratio(np.abs(psi.values), psi.grid, _axis_index(psi.grid, l))


def _curvature_ratio(a: np.ndarray, grid: Grid, l: int) -> np.ndarray:
    """abs_curvature_ratio of the modulus a."""
    peak = np.maximum.reduce(a, axis=None)  # a.max() without its wrapper
    if peak <= 0.0:
        return np.zeros_like(a)
    return _diff2(a, grid, l) / np.maximum(a, EPS_NODE_FRAC * peak)


def _madelung_phase(psi: WaveField, a: np.ndarray) -> tuple:
    """(arg psi unwrapped, significant mask) of psi, given a = |psi.values|,
    under the module's conventions; NodeError at a node.  The phase is
    unwrapped along axis 0 on every line, then along each later axis on the
    lines through the peak of a, and pinned to its principal value there."""
    ring = psi.grid.boundary == BOUNDARY_PERIODIC
    ph = np.angle(psi.values)
    mask = a >= SIGNIFICANT_FRAC * a.max()
    for l in range(psi.grid.dims):
        lower = np.roll(mask, 1, axis=l)  # each point's lower neighbour, across a ring's seam
        if not ring:
            np.moveaxis(lower, l, 0)[0] = False
        dph = (ph - np.roll(ph, 1, axis=l) + math.pi) % (2 * math.pi) - math.pi
        if np.any(mask & lower & (np.abs(dph) > NODE_JUMP_RAD)):
            raise NodeError(f"phase jump above {NODE_JUMP_RAD} rad along axis {l}: "
                            "node or under-resolved phase on the unwrapping path")
        if np.any(np.sum(mask & ~lower, axis=l) > 1):  # runs start past a tail point
            raise NodeError(f"|psi| dips below {SIGNIFICANT_FRAC:g} of its peak inside the "
                            f"support along axis {l}")

    def unwrap(ph, mask, anchor):
        # a ring's unwrap starts at its first index whose lines are all tail
        start = int(np.argmin(mask.reshape(len(mask), -1).any(axis=1))) if ring else 0
        s = np.roll(np.unwrap(np.roll(ph, -start, axis=0), axis=0), start, axis=0)
        if ph.ndim > 1:
            s = s + (unwrap(s[anchor[0]], mask[anchor[0]], anchor[1:]) - s[anchor[0]])
        return s - 2 * math.pi * np.round((s[anchor] - ph[anchor]) / (2 * math.pi))

    return unwrap(ph, mask, np.unravel_index(int(np.argmax(a)), a.shape)), mask


def galilean_boost(psi: WaveField, v) -> WaveField:
    """Multiply by exp(i m v.x / hbar), in the units of psi; |psi| is untouched.
    ValidationError, before any array is built, when m v_l x / hbar is not
    finite on the grid or steps by pi or more per cell, where it aliases."""
    units, grid = psi.units, psi.grid
    vv = np.broadcast_to(np.asarray(v, dtype=float), (grid.dims,))
    for l, vl in enumerate(vv.tolist()):  # Python floats round as the phase's numpy scalars do
        o, d = grid.origin[l], grid.spacing[l]
        far = max(abs(o), abs(o + d * (grid.points_per_dim[l] - 1)))
        step = abs(units.mass * vl) * d / units.hbar
        if not (math.isfinite(units.mass * vl * far / units.hbar) and step < math.pi):
            raise ValidationError(f"boost phase m v x / hbar along axis {l} is not finite on the "
                                  f"grid, or steps by m |v| dx / hbar = {step:g} >= pi per cell")
    phase = sum(units.mass * vv[l] * X / units.hbar for l, X in enumerate(grid.sparse_axes))
    return psi.with_values(psi.values * np.exp(1j * phase))


def gaussian_state(grid: Grid, sigma, center=None, phase_velocity=None,
                   units: UnitsConfig = UnitsConfig()) -> WaveField:
    """Normalized Gaussian packet, optionally boosted by a plane-wave phase.

    The grid must span at least +-6 sigma around the center in every
    dimension, otherwise SupportError is raised; ValidationError, before any
    array is built, when pi sigma^2 is 0 or infinite in double precision.
    """
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), (grid.dims,))
    ctr = np.zeros(grid.dims) if center is None else np.broadcast_to(
        np.asarray(center, dtype=float), (grid.dims,))
    if not (np.all((0 < sig) & (sig < math.inf)) and np.all(np.isfinite(ctr))):
        raise ValidationError("sigma must be positive and finite, and center finite")
    for sl in sig.tolist():  # the prefactor (pi sigma^2)^-1/4, tested on Python floats
        if not 0 < math.pi * (sl * sl) < math.inf:
            raise ValidationError(f"sigma = {sl:g}: pi sigma^2 = {math.pi * (sl * sl):g} is "
                                  "outside the range of double precision")
    for l in range(grid.dims):
        x = grid.axis(l)
        span_lo, span_hi = ctr[l] - x[0], x[-1] - ctr[l]
        if span_lo < 6 * sig[l] or span_hi < 6 * sig[l]:
            raise SupportError(
                f"grid spans less than 6 sigma around the center along axis {l}"
            )
    # an exponent that overflows to -inf gives the 0 its exp would round to anyway
    with np.errstate(over="ignore"):
        logamp = -sum((X - ctr[l]) ** 2 / (2 * sig[l] ** 2) for l, X in enumerate(grid.sparse_axes))
    vals = np.exp(logamp).astype(complex)
    for l in range(grid.dims):
        vals *= (math.pi * sig[l] ** 2) ** -0.25
    psi = WaveField(grid, vals, units)
    if phase_velocity is not None:
        psi = galilean_boost(psi, phase_velocity)
    return normalize(psi)


def plane_wave(grid: Grid, k, units: UnitsConfig = UnitsConfig()) -> WaveField:
    """Unit-norm e^{i k.x} / sqrt(V) on a periodic grid.

    Each component of k must be finite (else ValidationError) and fit an
    integer number of wavelengths in the box; otherwise
    CommensurabilityError is raised.
    """
    if grid.boundary != BOUNDARY_PERIODIC:
        raise CommensurabilityError("plane waves require a periodic grid")
    kv = np.broadcast_to(np.asarray(k, dtype=float), (grid.dims,))
    if not np.all(np.isfinite(kv)):
        raise ValidationError("k must be finite")
    volume = 1.0
    for l in range(grid.dims):
        L = grid.points_per_dim[l] * grid.spacing[l]
        cycles = kv[l] * L / (2 * math.pi)
        if abs(cycles - round(cycles)) > 1e-9:
            raise CommensurabilityError(
                f"k[{l}] = {kv[l]:g} fits {cycles:.6f} wavelengths in the box"
            )
        volume *= L
    phase = sum(kv[l] * X for l, X in enumerate(grid.sparse_axes))
    vals = np.exp(1j * phase) / math.sqrt(volume)
    return WaveField(grid, vals, units)


# ---------------------------------------------------------------------------
# serialization: CSV of samples plus JSON grid header

def _coordinate_columns(grid: Grid):
    return [X.ravel() for X in grid.meshgrid()]


def save_wavefield(psi: WaveField, csv_path, header_path) -> None:
    """Write samples as CSV (coordinates, re_psi, im_psi) plus a JSON header."""
    _write_wavefield(psi.values, _wavefield_text(psi.grid, psi.units), csv_path, header_path)


def _wavefield_text(grid: Grid, units: UnitsConfig) -> tuple:
    """save_wavefield's texts for states on grid in units: the CSV with each
    row's coordinates formatted and %.17g fields left for its samples, and
    the JSON header."""
    names = [f"x{l}" for l in range(grid.dims)] + ["re_psi", "im_psi"]
    csv = _csv_text(names, _coordinate_columns(grid))
    return csv, json.dumps(grid.header() | {"hbar": units.hbar, "mass": units.mass}, indent=2) + "\n"


def _write_wavefield(values: np.ndarray, text: tuple, csv_path, header_path) -> None:
    """save_wavefield of samples values, given _wavefield_text of their grid
    and units: the complex samples read as floats are re, im in turn."""
    with open(csv_path, "w", newline="") as fh:
        fh.write(text[0] % tuple(values.ravel().view(float).tolist()))
    with open(header_path, "w") as fh:
        fh.write(text[1])


def load_wavefield(csv_path, header_path) -> WaveField:
    with open(header_path) as fh:
        header = json.load(fh)
    grid = Grid.from_header(header)
    units = UnitsConfig(hbar=header.get("hbar", 1.0), mass=header.get("mass", 1.0))
    raw = np.genfromtxt(csv_path, delimiter=",", names=True)
    vals = (raw["re_psi"] + 1j * raw["im_psi"]).reshape(grid.shape)
    return WaveField(grid, vals, units)


def save_density(rho: np.ndarray, grid: Grid, csv_path, header_path) -> None:
    cols = _coordinate_columns(grid)
    names = [f"x{l}" for l in range(grid.dims)] + ["rho"]
    _write_csv(csv_path, names, cols + [np.asarray(rho).ravel()])
    _write_json(header_path, grid.header())


def _csv_text(names, columns) -> str:
    """CSV text of columns under the header row names, every row formatted by
    one % as %.17g fields (17 significant digits round-trip float64).  Names
    past the given columns are left as %.17g fields for a later %."""
    data = [np.asarray(c).tolist() for c in columns]
    rows = len(data[0]) if data else 0
    row = ",".join(["%.17g"] * len(data) + ["%%.17g"] * (len(names) - len(data))) + "\n"
    return ",".join(names) + "\n" + row * rows % tuple(itertools.chain.from_iterable(zip(*data)))


def _write_csv(path, names, columns) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_csv_text(names, columns))


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")
