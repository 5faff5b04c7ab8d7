"""Stationary states of the effective-mass eigenproblem and the consistency closure.

For real stationary states the nonlinear term reduces to multiplying each
Laplacian component by (1 + W_l), so the stationary problem is a linear
eigenproblem parameterized by the W_l, closed by the algebraic conditions

    W_l = W(C * F_l[|psi(.; W)|^2]).

The closure is a scalar root-find per axis, solved in z = C F: the root of
z(W) - C F[psi_W], with z(W) the inverse of W, is bracketed from W = 0 and
finished by Brent's method.  That function is defined and increasing for
every W >= 0, so states outside the W domain need no special case, and it
converges where the plain fixed-point map is strongly repelling (large
deformation, state near the domain edge of W).  A separable problem solves
one closure per distinct axis.

Eigen-solves run shifted inverse iteration on the LDL^T factors of H - sigma
(LAPACK ``dpttrf``/``dpttrs``; on a periodic grid H is a rank-one downdate of
a tridiagonal matrix, solved by Sherman-Morrison), with the shift below E_0
certified: a dirichlet H - sigma factors positive definite exactly when
sigma < E_0 (Sylvester's law of inertia), and a periodic one when, in
addition, the matrix determinant lemma gives it a positive determinant.  A
result is kept only if H - (E - r - floor) also passes, with r its
eigen-residual; that proves E is the lowest eigenvalue, not an excited level
the start was nearer to.  Successive closure iterates have nearby W, so each
solve after the first starts from the previous state.  A cold solve starts
from the ``eigh_tridiagonal`` ground state of the tridiagonal part of H; one
that cannot certify keeps that eigenpair (dirichlet) or falls back to ARPACK
(periodic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs

from .deformation import DeformationModel, UnitsConfig, W_eval, z_of_W
from .errors import ConvergenceError, DomainError
from .fields import (
    BOUNDARY_DIRICHLET,
    Grid,
    WaveField,
    _neighbours,
    fisher_information,
    integrate,
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
    """(E, unit vector, eigen-residual) of a 1D H; the residual is None for a
    result that carries no certificate."""
    warm = start is not None and _inverse_iteration(H, start)
    if warm:
        return warm
    # the tridiagonal part of a periodic H (its corners left out) has a nearby,
    # nodeless ground state: a cold start for either boundary
    diag, off = H.tridiagonal()
    E, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    cold = _inverse_iteration(H, v[:, 0])
    if cold:
        return cold
    if H.grid.boundary == BOUNDARY_DIRICHLET:
        return float(E[0]), v[:, 0], None
    # imported here: ARPACK serves only periodic solves that cannot certify
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
    return float(E[0]), v[:, 0], None


def _inverse_iteration(H: Hamiltonian, x):
    """Certified lowest eigenpair (E, unit vector, residual norm r) of a 1D H
    by shifted inverse iteration from x (Parlett, The Symmetric Eigenvalue
    Problem, ch. 4); None if x is not usable or no certificate is reached
    within _SWEEPS solves.

    E is the Rayleigh quotient of the vector and r its residual norm, both
    from first differences over the grid's edges (to the ghost zeros of a
    dirichlet grid, around the ring of a periodic one): x.Hx = sum V x^2 +
    coef sum dx^2 adds terms of one sign, where the tridiagonal product would
    cancel 2 coef x^2 against itself and lose about eps coef / |E| of
    relative accuracy.  Each sweep factors H - sigma at
    sigma = E - r - floor; success proves sigma < E_0, and the convergence
    factor (E_0 - sigma) / (E_1 - sigma) shrinks with r, so the error falls
    about quadratically.  A failed factorization means the vector lies nearer
    an excited level: that sweep shifts to the Gershgorin bound below every
    eigenvalue, min V - floor, instead.  The pair is returned once r <= floor
    and H - sigma factors: then E_0 > E - r - floor and E >= E_0, so E is the
    lowest eigenvalue unless E_1 - E_0 < 2 r + floor.  floor,
    10 eps ||H||_inf, is a few rounding errors of H and keeps the
    factorization clear of them.  At least one solve runs even when x already
    meets the floor: a start accurate to the floor still differs from the
    eigenvector by up to floor / (E_1 - E_0), and returning it unchanged would
    leave the state, and the Fisher information the closure reads off it,
    blind to a small change of H.

    A dirichlet H is tridiagonal, and H - sigma factors as LDL^T (LAPACK
    ``dpttrf``) exactly when it is positive definite (Sylvester's law of
    inertia).  A periodic H = T' - coef u u^T is a rank-one downdate of the
    tridiagonal T', H's bands with coef added to both end diagonals, by
    u = e_0 + e_-1.  H - sigma is then positive definite exactly when
    T' - sigma factors and 1 - coef u.(T' - sigma)^-1 u > 0, the ratio
    det(H - sigma) / det(T' - sigma) by the matrix determinant lemma (a
    rank-one downdate moves at most one eigenvalue below sigma), and it is
    solved by Sherman-Morrison with one more ``dpttrs`` for (T' - sigma)^-1 u.
    """
    diag, off = H.tridiagonal()
    coef = -float(off[0])
    floor = 10 * np.finfo(float).eps * (float(np.max(np.abs(diag))) + 2 * abs(coef))
    norm = float(np.linalg.norm(x))
    if not 0 < norm < math.inf:
        return None
    x = x / norm
    V = H.potential_values
    periodic = H.grid.boundary != BOUNDARY_DIRICHLET
    if periodic:
        diag = diag.copy()
        diag[[0, -1]] += coef  # T'
        u = np.zeros_like(V)
        u[[0, -1]] = 1.0

    def factor(sigma):  # a solver of (H - sigma) y = b if H - sigma > 0, else None
        d, e, info = dpttrf(diag - sigma, off)
        if info:
            return None
        if not periodic:
            return lambda b: dpttrs(d, e, b)[0]
        y = dpttrs(d, e, u)[0]
        den = 1.0 - coef * (y[0] + y[-1])
        if not den > 0:
            return None

        def solve(b):
            a = dpttrs(d, e, b)[0]
            return a + (coef * (a[0] + a[-1]) / den) * y

        return solve

    for sweep in range(_SWEEPS + 1):
        # x with a neighbour beyond either end: the ghost zeros of a dirichlet
        # grid, the opposite end of a periodic one
        dx = np.diff(np.concatenate((x[-1:], x, x[:1]) if periodic else ([0.0], x, [0.0])))
        y = V * x - coef * np.diff(dx)
        edges = dx[1:] if periodic else dx  # a ring's first and last dx are one edge
        E = float(V @ (x * x) + coef * (edges @ edges))
        r = float(np.linalg.norm(y - E * x))
        solve = factor(E - r - floor)
        if solve and r <= floor and sweep:
            return E, x, r
        if not solve:
            solve = factor(float(np.min(V)) - floor)
        if not solve or sweep == _SWEEPS:
            return None
        x = solve(x)
        x /= np.linalg.norm(x)


def ground_state(H: Hamiltonian, *, start=None):
    """Lowest eigenpair of H; real, nodeless, unit norm under the grid quadrature.

    A 1D problem runs certified inverse iteration on LDL^T factors (LAPACK
    ``dpttrf``/``dpttrs``; a periodic H adds a Sherman-Morrison correction),
    started from ``start`` or, cold, from the LAPACK tridiagonal ground
    state.  E is then the Rayleigh quotient of the returned state, and the
    state passes a positive-definite certificate that E is the lowest
    eigenvalue (see ``_inverse_iteration``).  A solve that cannot certify
    keeps the tridiagonal eigenpair (dirichlet) or falls back to ARPACK
    shift-invert on the sparse cyclic matrix (periodic).  Separable
    multi-dimensional problems reduce to products of 1D ground states.

    ``start``, like ``eigsh``'s ``v0``, is an initial vector: a real array of
    the grid's shape, e.g. the ground state of a nearby H.  A 1D solve on
    either boundary then runs certified inverse iteration from it and falls
    back to the cold solve when it cannot certify; a multi-dimensional solve
    ignores it.  It changes the cost of the solve, and the eigenpair only at
    the level of rounding.

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
        E, vals, res = _ground_1d(H, start)
    else:
        if not H.potential.separable:
            raise ValueError("multi-dimensional ground states require a separable potential")

        def axis_state(l, g1):  # (E, state) of the axis
            return _ground_1d(Hamiltonian(g1, H.potential, (H.W_params[l],), H.units))[:2]

        energies, vals = _separable_product(grid, axis_state,
                                            key=lambda l, g1: (g1, H.W_params[l]))
        E, res = sum(energies), None
    if res is None:  # a certified result brings the residual it was certified by
        res = _eigen_residual(H, vals, E)
    # rounding floor of the operator application, for |E| ~ 0 (free particle)
    op_scale = max(
        2 * (1 + max(H.W_params)) * H.units.hbar**2 / (H.units.mass * d**2)
        for d in grid.spacing
    ) + float(np.max(np.abs(H.potential_values)))
    threshold = max(RESIDUAL_RTOL * abs(E), 100 * np.finfo(float).eps * op_scale)
    if res > threshold:
        raise ConvergenceError(f"eigen-residual {res:.3e} above {RESIDUAL_RTOL:g}*|E|")
    scale = math.sqrt(integrate(vals * vals, grid))
    if vals.flat[int(np.argmax(np.abs(vals)))] < 0:
        scale = -scale
    return E, WaveField(grid, (vals / scale).astype(complex), H.units)


def _eigen_residual(H: Hamiltonian, psi_real: np.ndarray, E: float) -> float:
    """||H psi - E psi|| / ||psi||, independent of the normalization of psi."""
    return float(np.linalg.norm(H.matvec(psi_real) - E * psi_real) / np.linalg.norm(psi_real))


@dataclass(frozen=True)
class ConsistencyResult:
    """Converged solution of the consistency conditions.

    ``history`` holds, per axis, the (W_k, C F_k) of every ground-state solve
    of that axis's closure, in order; ``eigen_residual`` is
    ||H psi - E psi|| / ||psi|| of the returned state (for a separable solve,
    the root sum of squares of the axes' residuals, which is the product
    state's residual when each axis energy is its Rayleigh quotient).
    """

    W_params: tuple
    energy: float
    psi: WaveField
    iterations: int
    residual: float
    converged: bool
    history: tuple
    eigen_residual: float


def _solve_consistent_1d(grid, potential, model, units, tol, max_iter):
    """Root of g(W) = z(W) - C F[psi_W], with z = ``z_of_W`` the inverse of
    W_eval: a bracket, then Brent's zeroin (Brent 1973, ch. 4).  Every g
    costs one ground-state solve, started from the state of the previous one.

    g is defined and increasing for every W >= 0: z(W) rises towards the
    domain edge 1/(4 beta), and C F falls as a larger W widens the state.  The
    bracket starts at W = 0, where g = -C F < 0.  The first trial is the
    fixed-point image W(C F) of that state, or 1 if its C F lies at or past
    the edge, and W grows fourfold from there until g > 0.  The stopping
    test |W(C F) - W| <= tol max(1, |W|) is evaluated for every state whose
    C F lies inside the domain.
    """
    calls, best, done, state, history = 0, math.inf, None, None, []

    def g(W):  # sets ``done`` once the fixed-point residual meets tol
        nonlocal calls, best, done, state
        if calls == max_iter:
            raise ConvergenceError(
                f"no convergence in {max_iter} iterations (best residual {best:.3e})")
        calls += 1
        H = build_hamiltonian(grid, potential, (W,), units)
        # the previous iterate's state starts the solve: nearby W, nearby state
        E, psi = ground_state(H, start=state)
        state = psi.values.real
        z = units.C * fisher_information(state * state, 0, grid)
        history.append((W, z))
        if z < model.z_max_W:
            residual = abs(float(W_eval(z, model)) - W)
            best = min(best, residual)
            if residual <= tol * max(1.0, abs(W)):
                done = ConsistencyResult((W,), E, psi, calls, residual, True, (tuple(history),),
                                         _eigen_residual(H, state, E))
        return z_of_W(W, model) - z

    def stalled():  # the bracket collapsed at float resolution without meeting tol
        return ConvergenceError(f"consistency residual stalled at {best:.3e} (tolerance {tol:g})")

    lo, hi = (0.0, g(0.0)), None  # (W, g) with g < 0 and g > 0
    if done:
        return done
    z0 = history[0][1]
    W = float(W_eval(z0, model)) if z0 < model.z_max_W else 1.0
    while hi is None:
        gW = g(W)
        if done:
            return done
        if gW > 0:
            hi = (W, gW)
        else:
            lo = (W, gW)
            W *= 4.0
            if W > 1e15:
                raise DomainError("C*F stays at or above 1/(4 beta) for any effective mass: "
                                  "physically excluded regime")
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
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a


def _separable_product(grid, axis_state, key=lambda l, g1: g1):
    """Per-axis results of axis_state(l, grid_1d) -> (result, real 1D state),
    computed once per distinct key(l, grid_1d), and the outer product of the
    states (not normalized)."""
    solved, results, vals = {}, [], np.ones(())
    for l in range(grid.dims):
        g1 = Grid((grid.points_per_dim[l],), (grid.spacing[l],), (grid.origin[l],), grid.boundary)
        k = key(l, g1)
        if k not in solved:
            solved[k] = axis_state(l, g1)
        r, psi_l = solved[k]
        results.append(r)
        vals = np.multiply.outer(vals, psi_l)
    return results, vals


def solve_consistent(grid: Grid, potential: PotentialSpec, model: DeformationModel,
                     units: UnitsConfig = UnitsConfig(), tol: float = 1e-8,
                     max_iter: int = 200) -> ConsistencyResult:
    """Solve the stationary problem together with its consistency closure.

    Per axis, the closure W = W(C F[psi_W]) is solved in z: Brent's method
    finds the root of z(W) - C F[psi_W], with z the inverse of W_eval, which
    is defined and increasing for every W >= 0, so that states narrow enough
    to lie outside the W domain (C F >= 1/(4 beta)) need no special
    treatment; without deformation W = 0 converges at once.  Convergence
    means |W(C F) - W| <= tol * max(1, |W|); the scale factor matters only
    for large W where the consistency map amplifies last-digit Fisher noise.
    ``iterations`` counts every ground-state solve, bracketing included; a
    separable solve runs one closure per distinct axis and reports the
    largest count.

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
    psi = WaveField(grid, (vals / math.sqrt(integrate(vals * vals, grid))).astype(complex), units)
    return ConsistencyResult(tuple(r.W_params[0] for r in rs), sum(r.energy for r in rs), psi,
                             max(r.iterations for r in rs), max(r.residual for r in rs), True,
                             tuple(r.history[0] for r in rs),
                             math.hypot(*(r.eigen_residual for r in rs)))


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
