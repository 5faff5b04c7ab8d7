"""Stationary states of the effective-mass eigenproblem and the consistency closure.

For real stationary states the nonlinear term reduces to multiplying each
Laplacian component by (1 + W_l), so the stationary problem is a linear
eigenproblem parameterized by the W_l, closed by the algebraic conditions

    W_l = W(C * F_l[|psi(.; W)|^2]).

The closure is a scalar root-find per axis, bracketed between valid states
and finished by Brent's method, which converges where the plain fixed-point
map is strongly repelling (large deformation, state near the domain edge of
W).  Eigen-solves are LAPACK tridiagonal or, on periodic grids, ARPACK.

Successive closure iterates have nearby W, so on dirichlet grids each solve
after the first starts from the previous state: shifted inverse iteration on
the LDL^T factors of H - sigma (LAPACK ``dpttrf``/``dpttrs``), with the shift
below E_0 certified by Sylvester's law of inertia, since H - sigma factors
positive definite exactly when sigma < E_0.  A result is kept only if
H - (E - r - floor) also factors, with r its eigen-residual; that proves E is
the lowest eigenvalue, not an excited level the start was nearer to.  A solve
that cannot certify falls back to the cold ``eigh_tridiagonal`` solve, whose
eigenvector passes the same certificate.  Periodic solves stay cold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs

from .deformation import DeformationModel, UnitsConfig, W_eval
from .errors import ConvergenceError, DomainError
from .fields import (
    BOUNDARY_DIRICHLET,
    Grid,
    WaveField,
    _neighbours,
    fisher_per_dim,
    normalize,
)

POTENTIAL_FREE = "free"
POTENTIAL_HARMONIC = "harmonic"
POTENTIAL_TABULATED = "tabulated"

# inverse-iteration solves before a warm start gives way to the cold solver.
# Closure steps on harmonic and anharmonic wells take 1 to 5; ten sweeps at
# n = 4096 cost about half a cold solve, which bounds the work a poor start wastes.
_SWEEPS = 10

# ground_state's eigen-residual bound, relative to |E|
RESIDUAL_RTOL = 1e-9


@dataclass(frozen=True)
class PotentialSpec:
    """External potential: free, harmonic (0.5 zeta x^2 per dimension) or tabulated.
    Free and harmonic specs evaluate on any grid, so one spec serves every axis."""

    kind: str
    zeta: float = 1.0
    samples: np.ndarray = None

    def __post_init__(self):
        if self.kind not in (POTENTIAL_FREE, POTENTIAL_HARMONIC, POTENTIAL_TABULATED):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == POTENTIAL_HARMONIC and self.zeta <= 0:
            raise ValueError("zeta must be positive")
        if self.kind == POTENTIAL_TABULATED:
            if self.samples is None:
                raise ValueError("tabulated potential needs samples")
            object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))

    @classmethod
    def free(cls) -> "PotentialSpec":
        return cls(POTENTIAL_FREE)

    @classmethod
    def harmonic(cls, zeta: float) -> "PotentialSpec":
        return cls(POTENTIAL_HARMONIC, zeta=float(zeta))

    @classmethod
    def tabulated(cls, samples) -> "PotentialSpec":
        return cls(POTENTIAL_TABULATED, samples=samples)

    @property
    def separable(self) -> bool:
        """A sum of per-axis terms: every kind but a tabulated one."""
        return self.kind != POTENTIAL_TABULATED

    def evaluate(self, grid: Grid) -> np.ndarray:
        if self.kind == POTENTIAL_FREE:
            return np.zeros(grid.shape)
        if self.kind == POTENTIAL_HARMONIC:
            V = np.zeros(grid.shape)
            for X in grid.sparse_axes:
                V = V + 0.5 * self.zeta * X**2
            return V
        if self.samples.shape != grid.shape:
            raise ValueError("tabulated samples do not match the grid shape")
        return self.samples


@dataclass(frozen=True)
class Hamiltonian:
    """Matrix-free H = -(hbar^2/2m) sum_l (1+W_l) d^2_l + V on a grid.

    Central differences with ghost zeros on dirichlet grids, wrap-around on
    periodic ones; symmetric under the plain cell-volume inner product.
    """

    grid: Grid
    potential: PotentialSpec
    W_params: tuple
    units: UnitsConfig
    potential_values: np.ndarray = field(init=False)

    def __post_init__(self):
        W = tuple(float(w) for w in self.W_params)
        if len(W) != self.grid.dims:
            raise ValueError("W_params length must equal grid.dims")
        if not all(math.isfinite(w) for w in W):
            raise ValueError("W_params must be finite")
        object.__setattr__(self, "W_params", W)
        object.__setattr__(self, "potential_values", self.potential.evaluate(self.grid))

    def matvec(self, psi: np.ndarray) -> np.ndarray:
        psi = np.asarray(psi)
        out = self.potential_values * psi
        for l in range(self.grid.dims):
            d = self.grid.spacing[l]
            coef = (1.0 + self.W_params[l]) * self.units.hbar**2 / (2 * self.units.mass * d**2)
            up, dn = _neighbours(psi, self.grid, l)
            out = out + coef * (2 * psi - up - dn)
        return out

    def tridiagonal(self):
        """(diag, offdiag) bands of a 1D grid; a periodic grid also couples its
        two end points by offdiag."""
        if self.grid.dims != 1:
            raise ValueError("tridiagonal form exists for 1D grids only")
        n = self.grid.points_per_dim[0]
        d = self.grid.spacing[0]
        coef = (1.0 + self.W_params[0]) * self.units.hbar**2 / (2 * self.units.mass * d**2)
        diag = 2 * coef + self.potential_values
        off = np.full(n - 1, -coef)
        return diag, off


def build_hamiltonian(grid: Grid, potential: PotentialSpec, W_params, units: UnitsConfig) -> Hamiltonian:
    return Hamiltonian(grid, potential, tuple(np.atleast_1d(W_params)), units)


def _ground_1d(H: Hamiltonian, start=None):
    diag, off = H.tridiagonal()
    if H.grid.boundary == BOUNDARY_DIRICHLET:
        warm = start is not None and _inverse_iteration(H, start)
        if warm:
            return warm
        E, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
        return _inverse_iteration(H, v[:, 0]) or (float(E[0]), v[:, 0])
    else:
        # imported here: ARPACK is needed by periodic solves only
        from scipy.sparse import diags
        from scipy.sparse.linalg import eigsh

        n = len(diag)
        M = diags([off[:1], off, diag, off, off[:1]], [1 - n, -1, 0, 1, n - 1], format="csc")
        # shift below min V <= E_0 by the ring's lowest free excitation: E_0 is
        # the eigenvalue nearest the shift and M - shift is positive definite.
        # A fixed start vector (ARPACK's own varies per call) keeps solves
        # reproducible; it overlaps the nodeless ground state.
        gap = -2 * off[0] * (1 - math.cos(2 * math.pi / n))
        shift = float(np.min(H.potential_values)) - gap
        E, v = eigsh(M, k=1, sigma=shift, which="LM", v0=np.ones(n))
    return float(E[0]), v[:, 0]


def _inverse_iteration(H: Hamiltonian, x):
    """Certified lowest eigenpair (E, unit vector) of a 1D dirichlet H by
    shifted inverse iteration from x (Parlett, The Symmetric Eigenvalue
    Problem, ch. 4); None if x is not usable or no certificate is reached
    within _SWEEPS solves.

    E is the Rayleigh quotient of the vector and r its residual norm, both
    from first differences: x.Hx = sum V x^2 + coef (x_0^2 + x_-1^2 +
    sum (x[i+1] - x[i])^2) adds terms of one sign, where the tridiagonal
    product would cancel 2 coef x^2 against itself and lose about
    eps coef / |E| of relative accuracy.  Each sweep factors H - sigma
    (LDL^T, ``dpttrf``) at sigma = E - r - floor; success proves sigma < E_0
    (Sylvester's law of inertia), and the convergence factor
    (E_0 - sigma) / (E_1 - sigma) shrinks with r, so the error falls about
    quadratically.  A failed factorization means the vector lies nearer an
    excited level: that sweep shifts to the Gershgorin bound below every
    eigenvalue instead.  The pair is returned once r <= floor and H - sigma
    factors: then E_0 > E - r - floor and E >= E_0, so E is the lowest
    eigenvalue unless E_1 - E_0 < 2 r + floor.  floor, 10 eps ||H||_inf, is
    a few rounding errors of H and keeps the factorization clear of them.
    At least one solve runs even when x already meets the floor: a start
    accurate to the floor still differs from the eigenvector by up to
    floor / (E_1 - E_0), and returning it unchanged would leave the state,
    and the Fisher information the closure reads off it, blind to a small
    change of H.
    """
    diag, off = H.tridiagonal()
    coef = -float(off[0])
    floor = 10 * np.finfo(float).eps * (float(np.max(np.abs(diag))) + 2 * abs(coef))
    norm = float(np.linalg.norm(x))
    if not 0 < norm < math.inf:
        return None
    x = x / norm
    w = H.potential_values.copy()
    w[[0, -1]] += coef  # the ghost zeros beyond either end
    for sweep in range(_SWEEPS + 1):
        dx = x[1:] - x[:-1]
        flux = coef * dx
        y = w * x
        y[1:] += flux
        y[:-1] -= flux
        E = float(w @ (x * x) + flux @ dx)
        r = float(np.linalg.norm(y - E * x))
        d, e, info = dpttrf(diag - (E - r - floor), off)
        if info == 0 and r <= floor and sweep:
            return E, x
        if info:
            d, e, info = dpttrf(diag - (float(np.min(diag)) - 2 * abs(coef) - floor), off)
        if info or sweep == _SWEEPS:
            return None
        x, _ = dpttrs(d, e, x)
        x /= np.linalg.norm(x)


def ground_state(H: Hamiltonian, *, start=None):
    """Lowest eigenpair of H; real, nodeless, unit norm under the grid quadrature.

    1D problems use the LAPACK tridiagonal solver (dirichlet) or ARPACK
    shift-invert on the sparse cyclic matrix (periodic).  Separable
    multi-dimensional problems reduce to products of 1D ground states.
    On dirichlet grids E is the Rayleigh quotient of the returned state, and
    the state passes a positive-definite certificate that E is the lowest
    eigenvalue (see ``_inverse_iteration``).

    ``start``, like ``eigsh``'s ``v0``, is an initial vector: a real array of
    the grid's shape, e.g. the ground state of a nearby H.  A 1D dirichlet
    solve then runs certified inverse iteration from it and falls back to the
    cold solver when it cannot certify; other solves ignore it.  It changes
    the cost of the solve, and the eigenpair only at the level of rounding.

    ConvergenceError if the eigen-residual is above RESIDUAL_RTOL * |E|
    (with an absolute floor for E ~ 0).  ValueError for a multi-dimensional
    H whose potential is not separable.
    """
    grid = H.grid
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != grid.shape:
            raise ValueError(f"start has shape {start.shape}, the grid {grid.shape}")
    if grid.dims == 1:
        E, vals = _ground_1d(H, start)
    else:
        if not H.potential.separable:
            raise ValueError("multi-dimensional ground states require a separable potential")

        def axis_state(l, g1):
            return _ground_1d(Hamiltonian(g1, H.potential, (H.W_params[l],), H.units))

        energies, vals = _separable_product(grid, axis_state)
        E = sum(energies)
    res = _eigen_residual(H, vals, E)
    # rounding floor of the operator application, for |E| ~ 0 (free particle)
    op_scale = max(
        2 * (1 + max(H.W_params)) * H.units.hbar**2 / (H.units.mass * d**2)
        for d in grid.spacing
    ) + float(np.max(np.abs(H.potential_values)))
    threshold = max(RESIDUAL_RTOL * abs(E), 100 * np.finfo(float).eps * op_scale)
    if res > threshold:
        raise ConvergenceError(f"eigen-residual {res:.3e} above {RESIDUAL_RTOL:g}*|E|")
    if vals.flat[int(np.argmax(np.abs(vals)))] < 0:
        vals = -vals
    return E, normalize(WaveField(grid, vals.astype(complex), H.units))


def _eigen_residual(H: Hamiltonian, psi_real: np.ndarray, E: float) -> float:
    """||H psi - E psi|| / ||psi||, independent of the normalization of psi."""
    return float(np.linalg.norm(H.matvec(psi_real) - E * psi_real) / np.linalg.norm(psi_real))


@dataclass(frozen=True)
class ConsistencyResult:
    """Converged solution of the consistency conditions."""

    W_params: tuple
    energy: float
    psi: WaveField
    iterations: int
    residual: float
    converged: bool


def _solve_consistent_1d(grid, potential, model, units, tol, max_iter):
    """Root of g(W) = W(C F[psi_W]) - W: a bracket of two valid states, then
    Brent's zeroin (Brent 1973, ch. 4).  Every g costs one ground-state solve,
    started from the state of the previous one.

    Excluded states (C*F >= 1/(4 beta)) form a half-line W < W_edge, since a
    larger W gives a wider state and a smaller F.  W grows (0, 1, 4, ...) out
    of it until g < 0; while the lower end is still excluded, bisection finds
    a valid one.
    """
    calls, best, done, state = 0, math.inf, None, None

    def g(W):  # None for an excluded state; sets ``done`` once |g| meets tol
        nonlocal calls, best, done, state
        if calls == max_iter:
            raise ConvergenceError(
                f"no convergence in {max_iter} iterations (best residual {best:.3e})")
        calls += 1
        # the previous iterate's state starts the solve: nearby W, nearby state
        E, psi = ground_state(build_hamiltonian(grid, potential, (W,), units), start=state)
        state = psi.values.real
        z = units.C * fisher_per_dim(psi)[0]
        if z >= model.z_max_W:
            return None
        gW = float(W_eval(z, model)) - W
        best = min(best, abs(gW))
        if abs(gW) <= tol * max(1.0, abs(W)):
            done = ConsistencyResult((W,), E, psi, calls, abs(gW), True)
        return gW

    def stalled():  # the bracket collapsed at float resolution without meeting tol
        return ConvergenceError(f"consistency residual stalled at {best:.3e} (tolerance {tol:g})")

    lo = hi = excluded = None  # lo, hi: (W, g) of valid states with g > 0, g < 0
    W = 0.0
    while lo is None or hi is None:
        gW = g(W)
        if done:
            return done
        if gW is None:
            excluded = W
        elif gW > 0:
            lo = (W, gW)
        else:
            hi = (W, gW)
        if hi is None:
            W = 1.0 if W == 0.0 else 4.0 * W
            if W > 1e15:
                raise stalled() if lo else DomainError(
                    "C*F stays at or above 1/(4 beta) for any effective mass: "
                    "physically excluded regime")
        elif lo is None:
            if excluded is None or hi[0] - excluded <= np.spacing(max(hi[0], 1.0)):
                raise stalled()
            W = 0.5 * (excluded + hi[0])
    # b is the best iterate, [b, c] brackets the root, a is the previous b
    (a, fa), (b, fb) = lo, hi
    c, fc, d, e = a, fa, b - a, b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol1 = 2 * np.finfo(float).eps * max(abs(b), 1.0)
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1:
            raise stalled()
        step = None  # an interpolation step, if it shrinks the bracket fast enough
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2 * xm * s, 1 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2 * xm * q * (q - r) - (b - a) * (r - 1))
                q = (q - 1) * (r - 1) * (s - 1)
            q = -q if p > 0 else q
            p = abs(p)
            if 2 * p < min(3 * xm * q - abs(tol1 * q), abs(e * q)):
                step = p / q
        e, d = (xm, xm) if step is None else (d, step)  # bisect, or interpolate
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = g(b)
        if done:
            return done
        if fb is None:
            raise ConvergenceError(f"excluded state at W={b:g} inside a valid bracket")
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a


def _separable_product(grid, axis_state):
    """Per-axis results of axis_state(l, grid_1d) -> (result, real 1D state)
    and the outer product of the states (not normalized)."""
    results, vals = [], np.ones(())
    for l in range(grid.dims):
        g1 = Grid((grid.points_per_dim[l],), (grid.spacing[l],), (grid.origin[l],), grid.boundary)
        r, psi_l = axis_state(l, g1)
        results.append(r)
        vals = np.multiply.outer(vals, psi_l)
    return results, vals


def solve_consistent(grid: Grid, potential: PotentialSpec, model: DeformationModel,
                     units: UnitsConfig = UnitsConfig(), tol: float = 1e-8,
                     max_iter: int = 200) -> ConsistencyResult:
    """Solve the stationary problem together with its consistency closure.

    Per axis, brackets the root of g(W) = W(C F[psi_W]) - W between two states
    inside the W domain (narrow states with C F >= 1/(4 beta) push it to larger
    W), then runs Brent's method; without deformation W = 0 converges at once.
    Convergence means residual <= tol * max(1, |W|); the scale factor matters
    only for large W where the consistency map amplifies last-digit Fisher
    noise.  ``iterations`` counts every ground-state solve, bracketing included.

    DomainError is raised when no effective mass brings C*F below the W
    domain edge (e.g. box-like confinement with F bounded from below).
    """
    if grid.dims == 1:
        return _solve_consistent_1d(grid, potential, model, units, tol, max_iter)
    if not potential.separable:
        raise ValueError("multi-dimensional consistency solves require a separable potential")

    def axis_state(l, g1):  # separable case: per-axis closures are independent
        r1 = _solve_consistent_1d(g1, potential, model, units, tol, max_iter)
        return r1, np.real(r1.psi.values)

    rs, vals = _separable_product(grid, axis_state)
    psi = normalize(WaveField(grid, vals.astype(complex), units))
    return ConsistencyResult(tuple(r.W_params[0] for r in rs), sum(r.energy for r in rs), psi,
                             max(r.iterations for r in rs), max(r.residual for r in rs), True)


def nu_of_q(q):
    """Closed-form deformation parameter of the harmonic ground state.

    nu(q) = q/(1+q^2) * (4 sqrt(1+q^2) + q (7 + 8 q (q + sqrt(1+q^2)))),
    nonnegative and increasing, asymptotically 16 q^2.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ValueError("q must be nonnegative")
    r = np.sqrt(1.0 + q**2)
    out = q / (1.0 + q**2) * (4.0 * r + q * (7.0 + 8.0 * q * (q + r)))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class HarmonicAnalytic:
    """Closed-form description of the deformed harmonic ground state."""

    sigma0_sq: float
    q: float
    nu: float
    sigma_sq: float


def harmonic_analytic(beta: float, zeta: float, units: UnitsConfig = UnitsConfig()) -> HarmonicAnalytic:
    """sigma0^2 = sqrt(hbar^2/(zeta m)), q = hbar^2 beta/(2 sigma0^2),
    nu = nu(q), sigma^2 = sigma0^2 sqrt(1+nu)."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    sigma0_sq = math.sqrt(units.hbar**2 / (zeta * units.mass))
    q = units.hbar**2 * beta / (2 * sigma0_sq)
    nu = nu_of_q(q)
    return HarmonicAnalytic(sigma0_sq, q, nu, sigma0_sq * math.sqrt(1.0 + nu))


def min_position_uncertainty_scan(beta: float, q_grid, units: UnitsConfig = UnitsConfig()):
    """Ground-state position variance along the stiffness sweep.

    Returns ((Delta x)^2 per q, infimum estimate).  The sequence
    (hbar^2 beta / 4) q^-1 sqrt(1 + nu(q)) decreases monotonically and
    approaches hbar^2 beta from above, the minimal-length limit.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    q = np.asarray(q_grid, dtype=float)
    if np.any(q <= 0):
        raise ValueError("q_grid must be positive")
    vals = (units.hbar**2 * beta / 4.0) * np.sqrt(1.0 + nu_of_q(q)) / q
    return vals, float(vals[np.argmax(q)])


def gup_min_uncertainty_product(beta: float, delta_p, units: UnitsConfig = UnitsConfig()):
    """Minimal Delta x allowed by the deformed relation at given Delta p:
    hbar (1 + beta dp^2) / (2 dp).  Minimized over dp this is hbar sqrt(beta)."""
    dp = np.asarray(delta_p, dtype=float)
    return units.hbar * (1.0 + beta * dp**2) / (2.0 * dp)
