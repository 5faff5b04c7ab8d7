"""Wavefunctions and densities on uniform grids, with the functionals the theory needs.

Conventions:

* ``dirichlet`` grids sample an open box; the state is taken to vanish at
  ghost nodes one spacing outside the sampled points.  Quadrature is the
  trapezoid rule.
* ``periodic`` grids sample one period with the right endpoint omitted.
  Quadrature is the rectangle rule (spectrally accurate on periodic data).
* Derivatives are second-order central differences; momentum statistics use
  spectral derivatives on periodic grids.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .deformation import UnitsConfig
from .errors import (
    CommensurabilityError,
    SupportError,
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


@dataclass(frozen=True)
class Grid:
    """Uniform sampling grid in 1 to 3 dimensions."""

    points_per_dim: tuple
    spacing: tuple
    origin: tuple
    boundary: str = BOUNDARY_DIRICHLET

    def __post_init__(self):
        object.__setattr__(self, "points_per_dim", tuple(int(n) for n in self.points_per_dim))
        object.__setattr__(self, "spacing", tuple(float(d) for d in self.spacing))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        if not 1 <= self.dims <= 3:
            raise ValueError("grids support 1 to 3 dimensions")
        if len(self.spacing) != self.dims or len(self.origin) != self.dims:
            raise ValueError("points_per_dim, spacing, origin must have equal length")
        if any(n < 16 for n in self.points_per_dim):
            raise ValueError("at least 16 points per dimension")
        if any(d <= 0 for d in self.spacing):
            raise ValueError("spacing must be positive")
        if self.boundary not in (BOUNDARY_DIRICHLET, BOUNDARY_PERIODIC):
            raise ValueError(f"unknown boundary {self.boundary!r}")

    @classmethod
    def centered(cls, extent, points, dims: int = 1, boundary: str = BOUNDARY_DIRICHLET) -> "Grid":
        """Grid spanning [-extent, extent] per dimension, centered on 0.

        ``extent`` and ``points`` may be scalars (shared by all dimensions)
        or per-dimension sequences.  Periodic grids omit the right endpoint.
        """
        ext = np.broadcast_to(np.asarray(extent, dtype=float), (dims,))
        npt = np.broadcast_to(np.asarray(points, dtype=int), (dims,))
        spacing = []
        for L, n in zip(ext, npt):
            if boundary == BOUNDARY_PERIODIC:
                spacing.append(2 * L / n)
            else:
                spacing.append(2 * L / (n - 1))
        return cls(tuple(npt), tuple(spacing), tuple(-L for L in ext), boundary)

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
        axes = tuple(np.meshgrid(*self.axes(), indexing="ij", sparse=True))
        for x in axes:
            x.flags.writeable = False
        return axes

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


def _neighbours(f: np.ndarray, grid: Grid, l: int):
    """(f[i+1], f[i-1]) along axis l: wrapped on periodic grids, ghost zeros
    past the ends on dirichlet grids."""
    pre = (slice(None),) * l
    head, tail, first, last = pre + (slice(1, None),), pre + (slice(-1),), pre + (0,), pre + (-1,)
    up, dn = np.empty_like(f), np.empty_like(f)
    up[tail], dn[head] = f[head], f[tail]
    periodic = grid.boundary == BOUNDARY_PERIODIC
    up[last], dn[first] = (f[first], f[last]) if periodic else (0.0, 0.0)
    return up, dn


def _diff1(f: np.ndarray, grid: Grid, l: int) -> np.ndarray:
    """Central first derivative along axis l (ghost zeros on dirichlet)."""
    up, dn = _neighbours(f, grid, l)
    return (up - dn) / (2 * grid.spacing[l])


def _diff2(f: np.ndarray, grid: Grid, l: int) -> np.ndarray:
    """Central second derivative along axis l (ghost zeros on dirichlet)."""
    up, dn = _neighbours(f, grid, l)
    return (up - 2 * f + dn) / grid.spacing[l] ** 2


def _diff1_onesided(f: np.ndarray, grid: Grid, l: int) -> np.ndarray:
    """Central derivative with second-order one-sided ends (dirichlet)."""
    g = _diff1(f, grid, l)
    if grid.boundary == BOUNDARY_DIRICHLET:
        d, f, ends = grid.spacing[l], np.moveaxis(f, l, 0), np.moveaxis(g, l, 0)
        ends[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * d)
        ends[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * d)
    return g


@dataclass(frozen=True)
class WaveField:
    """Complex wavefunction samples on a grid.  Treat values as immutable."""

    grid: Grid
    values: np.ndarray
    units: UnitsConfig = field(default_factory=UnitsConfig)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray) -> "WaveField":
        return WaveField(self.grid, values, self.units)

    def norm(self) -> float:
        return math.sqrt(integrate(np.abs(self.values) ** 2, self.grid))


@dataclass(frozen=True)
class FieldStats:
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
    return psi.with_values(psi.values / n)


def density(psi: WaveField) -> np.ndarray:
    return np.abs(psi.values) ** 2


def fisher_information(rho: np.ndarray, l: int, grid: Grid) -> float:
    """Quadrature of (1/rho)(d rho/dx_l)^2 with central differences.

    Points where rho < RHO_FLOOR_FRAC * max(rho) contribute zero, which
    regularizes vanishing tails without biasing smooth states.
    """
    rho = np.asarray(rho, dtype=float)
    if l >= grid.dims:
        raise ValueError("dimension index out of range")
    drho = _diff1(rho, grid, l)
    peak = rho.max()
    if peak <= 0.0:
        return 0.0
    floor = RHO_FLOOR_FRAC * peak
    integrand = np.where(rho >= floor, drho**2 / np.maximum(rho, floor), 0.0)
    return integrate(integrand, grid)


def fisher_per_dim(psi_or_rho, grid: Grid = None) -> np.ndarray:
    """Fisher information along every dimension of a field or density."""
    if isinstance(psi_or_rho, WaveField):
        rho = density(psi_or_rho)
        grid = psi_or_rho.grid
    else:
        rho = np.asarray(psi_or_rho, dtype=float)
        if grid is None:
            raise ValueError("grid required for raw density samples")
    return np.array([fisher_information(rho, l, grid) for l in range(grid.dims)])


def position_stats(psi: WaveField):
    """Mean and standard deviation of position per dimension."""
    rho = density(psi)
    return _position_stats(rho, psi.grid, integrate(rho, psi.grid))


def _position_stats(rho: np.ndarray, grid: Grid, total: float):
    w = grid.quad_weights()
    means, deltas = [], []
    for X in grid.sparse_axes:
        m = float(np.sum(X * rho * w)) / total
        var = float(np.sum((X - m) ** 2 * rho * w)) / total
        means.append(m)
        deltas.append(math.sqrt(max(var, 0.0)))
    return means, deltas


def momentum_stats(psi: WaveField):
    """Mean and standard deviation of -i hbar d_l per dimension.

    Spectral on periodic grids, where Parseval turns <p_l> and <p_l^2> into
    moments of k_l over |fft(psi)|^2; central differences with second-order
    one-sided ends on dirichlet grids.  The second moment is evaluated as
    hbar^2 INT |d_l psi|^2, the quadratic-form expression that stays
    nonnegative.
    """
    return _momentum_stats(psi, integrate(density(psi), psi.grid))


def _momentum_stats(psi: WaveField, total: float):
    hbar = psi.units.hbar
    grid = psi.grid
    w = grid.quad_weights()
    if grid.boundary == BOUNDARY_PERIODIC:
        power = np.abs(np.fft.fftn(psi.values)) ** 2
        total = float(np.sum(power))  # Parseval: N times INT |psi|^2 / dV
    means, deltas = [], []
    for l in range(grid.dims):
        if grid.boundary == BOUNDARY_PERIODIC:
            k = 2 * np.pi * np.fft.fftfreq(grid.points_per_dim[l], grid.spacing[l])
            marginal = power.sum(axis=tuple(a for a in range(grid.dims) if a != l))
            p_mean = hbar * float(marginal @ k) / total
            p2 = hbar**2 * float(marginal @ k**2) / total
        else:
            dpsi = _diff1_onesided(psi.values, grid, l)
            p_mean = hbar * float(np.imag(np.sum(np.conj(psi.values) * dpsi * w))) / total
            p2 = hbar**2 * float(np.sum(np.abs(dpsi) ** 2 * w)) / total
        means.append(p_mean)
        deltas.append(math.sqrt(max(p2 - p_mean**2, 0.0)))
    return means, deltas


def field_stats(psi: WaveField) -> FieldStats:
    rho = density(psi)
    return _field_stats(psi, rho, fisher_per_dim(rho, psi.grid))


def _field_stats(psi: WaveField, rho: np.ndarray, F) -> FieldStats:
    """field_stats of psi given its density rho = |psi|^2 and its Fisher
    information F, which callers holding both need not recompute."""
    total = integrate(rho, psi.grid)
    mean_x, delta_x = _position_stats(rho, psi.grid, total)
    mean_p, delta_p = _momentum_stats(psi, total)
    C = psi.units.C
    return FieldStats(
        norm=math.sqrt(total),
        mean_x=tuple(mean_x),
        delta_x=tuple(delta_x),
        mean_p=tuple(mean_p),
        delta_p=tuple(delta_p),
        fisher=tuple(F),
        delta_x_small=tuple(1.0 / math.sqrt(f) if f > 0 else math.inf for f in F),
        delta_N_w=tuple(math.sqrt(C * f) for f in F),
    )


def rescale_density(rho: np.ndarray, kappa: float, grid: Grid) -> np.ndarray:
    """Rescaled density kappa^n rho(kappa x) on the same grid.

    Linear interpolation; points mapping outside the grid read as zero.
    Raises SupportError when more than 1e-8 of the mass lives outside the
    shrunken window [kappa * min, kappa * max] and would be truncated.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    rho = np.asarray(rho, dtype=float)
    axes = grid.axes()
    w = grid.quad_weights()
    mass = float(np.sum(rho * w))
    if mass > 0:
        outside = np.zeros(grid.shape, dtype=bool)
        for l, x in enumerate(axes):
            shape = [1] * grid.dims
            shape[l] = -1
            lo, hi = kappa * x[0], kappa * x[-1]
            outside |= ((x < lo) | (x > hi)).reshape(shape)
        lost = float(np.sum(rho * w * outside))
        if lost > 1e-8 * mass:
            raise SupportError(
                f"rescaling by kappa={kappa:g} truncates {lost / mass:.3e} of the mass"
            )
    if grid.dims == 1:
        out = kappa * np.interp(kappa * axes[0], axes[0], rho, left=0.0, right=0.0)
    else:
        from scipy.interpolate import RegularGridInterpolator

        interp = RegularGridInterpolator(axes, rho, bounds_error=False, fill_value=0.0)
        mesh = grid.meshgrid()
        pts = np.stack([kappa * X for X in mesh], axis=-1)
        out = kappa**grid.dims * interp(pts)
    return out


def abs_curvature_ratio(psi: WaveField, l: int) -> np.ndarray:
    """Pointwise (d^2|psi|/dx_l^2) / |psi|, regularized at tiny |psi|.

    Depends only on |psi|; any phase factor drops out.
    """
    return _curvature_ratio(np.abs(psi.values), psi.grid, l)


def _curvature_ratio(a: np.ndarray, grid: Grid, l: int) -> np.ndarray:
    peak = a.max()
    if peak <= 0.0:
        return np.zeros_like(a)
    return _diff2(a, grid, l) / np.maximum(a, EPS_NODE_FRAC * peak)


def gaussian_state(grid: Grid, sigma, center=None, phase_velocity=None,
                   units: UnitsConfig = UnitsConfig()) -> WaveField:
    """Normalized Gaussian packet, optionally boosted by a plane-wave phase.

    The grid must span at least +-6 sigma around the center in every
    dimension, otherwise SupportError is raised.
    """
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), (grid.dims,))
    ctr = np.zeros(grid.dims) if center is None else np.broadcast_to(
        np.asarray(center, dtype=float), (grid.dims,))
    if np.any(sig <= 0):
        raise ValueError("sigma must be positive")
    for l in range(grid.dims):
        x = grid.axis(l)
        span_lo, span_hi = ctr[l] - x[0], x[-1] - ctr[l]
        if span_lo < 6 * sig[l] or span_hi < 6 * sig[l]:
            raise SupportError(
                f"grid spans less than 6 sigma around the center along axis {l}"
            )
    mesh = grid.meshgrid()
    logamp = np.zeros(grid.shape)
    for l, X in enumerate(mesh):
        logamp = logamp - (X - ctr[l]) ** 2 / (2 * sig[l] ** 2)
    vals = np.exp(logamp).astype(complex)
    for l in range(grid.dims):
        vals *= (math.pi * sig[l] ** 2) ** -0.25
    if phase_velocity is not None:
        v = np.broadcast_to(np.asarray(phase_velocity, dtype=float), (grid.dims,))
        phase = np.zeros(grid.shape)
        for l, X in enumerate(mesh):
            phase = phase + units.mass * v[l] * X / units.hbar
        vals = vals * np.exp(1j * phase)
    return normalize(WaveField(grid, vals, units))


def plane_wave(grid: Grid, k, units: UnitsConfig = UnitsConfig()) -> WaveField:
    """Unit-norm e^{i k.x} / sqrt(V) on a periodic grid.

    Each component of k must fit an integer number of wavelengths in the
    box; otherwise CommensurabilityError is raised.
    """
    if grid.boundary != BOUNDARY_PERIODIC:
        raise CommensurabilityError("plane waves require a periodic grid")
    kv = np.broadcast_to(np.asarray(k, dtype=float), (grid.dims,))
    volume = 1.0
    for l in range(grid.dims):
        L = grid.points_per_dim[l] * grid.spacing[l]
        cycles = kv[l] * L / (2 * math.pi)
        if abs(cycles - round(cycles)) > 1e-9:
            raise CommensurabilityError(
                f"k[{l}] = {kv[l]:g} fits {cycles:.6f} wavelengths in the box"
            )
        volume *= L
    mesh = grid.meshgrid()
    phase = np.zeros(grid.shape)
    for l, X in enumerate(mesh):
        phase = phase + kv[l] * X
    vals = np.exp(1j * phase) / math.sqrt(volume)
    return WaveField(grid, vals, units)


# ---------------------------------------------------------------------------
# serialization: CSV of samples plus JSON grid header

def _coordinate_columns(grid: Grid):
    mesh = grid.meshgrid()
    return [X.ravel() for X in mesh]


def save_wavefield(psi: WaveField, csv_path, header_path) -> None:
    """Write samples as CSV (coordinates, re_psi, im_psi) plus a JSON header."""
    cols = _coordinate_columns(psi.grid)
    names = [f"x{l}" for l in range(psi.grid.dims)] + ["re_psi", "im_psi"]
    data = cols + [psi.values.ravel().real, psi.values.ravel().imag]
    _write_csv(csv_path, names, data)
    header = psi.grid.header()
    header["hbar"] = psi.units.hbar
    header["mass"] = psi.units.mass
    with open(header_path, "w") as fh:
        json.dump(header, fh, indent=2)
        fh.write("\n")


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
    with open(header_path, "w") as fh:
        json.dump(grid.header(), fh, indent=2)
        fh.write("\n")


def _write_csv(path, names, columns) -> None:
    # full double precision: 17 significant digits round-trips float64
    row = ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(row % r for r in zip(*(np.asarray(c).tolist() for c in columns)))
