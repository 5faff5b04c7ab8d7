"""Stationary states of the effective-mass eigenproblem and the consistency closure.

For real stationary states the nonlinear term reduces to multiplying each
Laplacian component by (1 + W_l), so the stationary problem is a linear
eigenproblem parameterized by the W_l, closed by the algebraic conditions

    W_l = W(C * F_l[|psi(.; W)|^2]).

The closure is a scalar root-find per axis in the model variable.  An
effective mass 1 + W widens a quadratic well's ground state so that C F
falls as (1 + W)^-1/2, and the W that makes that scaling law consistent,
W_model(C F sqrt(1 + W)), has a closed form.  The closure solves
h(W) = W_model(C F[psi_W] sqrt(1 + W)) - W = 0: h is defined for every
W >= 0, states outside the W domain included, and is free of cancellation
at the domain edge, so the closure reaches the minimal-length regime, where
C F lies within rounding of 1/(4 beta).  For a quadratic well h is linear
in W and one fixed-point step W + h lands on the root.  The first trial starts
from C F at W = 0 read off the coarse grid that a cold eigen-solve starts
on, so no eigen-solve at W = 0 is needed when that grid resolves the W = 0
state; secant steps follow, safeguarded by a bracket on the root.  Box-like
confinement, whose C F never falls below the domain edge, keeps h > 0 up to
W = 1e15 and raises DomainError.  A separable problem solves one closure
per distinct axis and multiplies the axes' unit-norm states.

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
from the ground state of H sampled on about 128 points (LAPACK ``dstebz``
and ``dstein``), linearly interpolated.  A 1D solve certifies its result or
raises ConvergenceError: a warm start that cannot certify gives way to the
cold start, which has no fallback.
"""

from __future__ import annotations

import copy
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .deformation import DeformationModel, UnitsConfig, W_eval, _W_of_ts
from .errors import ConvergenceError, DomainError, ValidationError
from .fields import (
    BOUNDARY_DIRICHLET,
    RHO_FLOOR_FRAC,
    Grid,
    WaveField,
    _stencil,
    fisher_information,
    hopping,
    integrate,
)

POTENTIAL_FREE = "free"
POTENTIAL_HARMONIC = "harmonic"
POTENTIAL_TABULATED = "tabulated"

# inverse-iteration solves before a warm start gives way to the cold one, or a
# cold one raises ConvergenceError.  Warm solves of closure steps take 1 to 4
# on harmonic wells up to q = 10 and on anharmonic ones, and up to all ten
# where a step moves W by orders of magnitude (harmonic wells from q ~ 25 on).
# Ten sweeps that each factor twice, as from a start on the first excited
# state, cost about 2.4 cold solves at n = 4096 (1.8 ms against 0.76 ms,
# BENCH_stationary_sweeps.json), which bounds the work a poor start wastes.
_SWEEPS = 10

# points of the coarse grid on which a cold 1D solve finds its start
_COARSE_POINTS = 128

# largest W the closure tries before it counts the regime as excluded
_W_MAX = 1e15

# the closure's stopping tolerance on |h(W)| / max(1, W), and its budget of
# ground-state solves per axis
_TOL = 1e-8
_MAX_SOLVES = 200


@dataclass(frozen=True)
class PotentialSpec:
    """External potential: free, harmonic (0.5 zeta x^2 per dimension) or tabulated.
    Free and harmonic specs evaluate on any grid, so one spec serves every axis."""

    kind: str
    zeta: float = 1.0
    samples: np.ndarray = None

    def __post_init__(self):
        if self.kind not in (POTENTIAL_FREE, POTENTIAL_HARMONIC, POTENTIAL_TABULATED):
            raise ValidationError(f"unknown potential kind {self.kind!r}")
        if self.kind == POTENTIAL_HARMONIC and not 0 < self.zeta < math.inf:
            raise ValidationError("zeta must be positive and finite")
        if self.kind == POTENTIAL_TABULATED:
            object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))  # None: nan
            if not np.all(np.isfinite(self.samples)):
                raise ValidationError("tabulated potential needs finite samples")

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
        """V on the grid; ValidationError when a harmonic V overflows double
        precision, raised before numpy would warn."""
        if self.kind == POTENTIAL_FREE:
            return np.zeros(grid.shape)
        if self.kind == POTENTIAL_HARMONIC:
            # each axis's largest |x| is at one of its ends; their terms, on
            # Python floats in numpy's order, sum to the largest sample
            ends = [max(abs(float(X.flat[0])), abs(float(X.flat[-1]))) for X in grid.sparse_axes]
            if not sum(0.5 * self.zeta * (x * x) for x in ends) < math.inf:
                raise ValidationError(f"harmonic potential 0.5 zeta x^2 is not finite at |x| = "
                                      f"{max(ends):g}, zeta = {self.zeta:g}: outside the range "
                                      "of double precision")
            return sum(0.5 * self.zeta * X**2 for X in grid.sparse_axes)
        if self.samples.shape != grid.shape:
            raise ValidationError("tabulated samples do not match the grid shape")
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
            raise ValidationError("W_params length must equal grid.dims")
        if not all(math.isfinite(w) for w in W):
            raise ValidationError("W_params must be finite")
        object.__setattr__(self, "W_params", W)
        object.__setattr__(self, "potential_values", self.potential.evaluate(self.grid))

    def _with_W(self, W: float) -> "Hamiltonian":
        """This 1D H at another finite W, sharing the potential values."""
        H = copy.copy(self)
        object.__setattr__(H, "W_params", (float(W),))
        return H

    def hopping(self, l: int) -> float:
        """(1 + W_l) hbar^2 / (2 m dx_l^2), the coupling of neighbouring points
        along axis l, from its one owner fields.hopping: ValidationError when
        it is not finite and positive."""
        return hopping(self.grid, self.units, l, self.W_params[l])

    def matvec(self, psi: np.ndarray) -> np.ndarray:
        psi = np.asarray(psi)
        out = self.potential_values * psi
        d2 = np.empty_like(out)
        for l in range(self.grid.dims):
            coef = self.hopping(l)
            # coef (2 psi - up - dn) is -coef times the stencil's second
            # difference (up - 2 psi) + dn, exactly: rounding is symmetric
            _stencil(psi, self.grid, l, d2, second=True)
            d2 *= coef
            out -= d2
        return out

    def tridiagonal(self):
        """(diag, offdiag) bands of a 1D grid; a periodic grid also couples its
        two end points by offdiag."""
        if self.grid.dims != 1:
            raise ValidationError("tridiagonal form exists for 1D grids only")
        n = self.grid.points_per_dim[0]
        coef = self.hopping(0)
        diag = 2 * coef + self.potential_values
        off = np.full(n - 1, -coef)
        return diag, off


def build_hamiltonian(grid: Grid, potential: PotentialSpec, W_params, units: UnitsConfig) -> Hamiltonian:
    return Hamiltonian(grid, potential, tuple(np.atleast_1d(W_params)), units)


def _lapack():
    """scipy's LAPACK wrappers, the extension ``scipy.linalg._flapack`` that
    ``scipy.linalg.lapack`` re-exports, loaded without running
    ``scipy/linalg/__init__.py``, which would add about 0.17 s and 24 MB to
    the start-up of every command that factors a matrix.  Kept in
    ``sys.modules`` under its own name, so that a ``scipy.linalg`` loaded
    before or after shares its routines.  ImportError when scipy does not
    ship it.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")  # locates the package without running it
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(scipy.submodule_search_locations[0], "linalg")])
    if spec is None:
        raise ImportError(f"no module named {name!r}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sys.modules.setdefault(name, module)


def _coarse_ground(H: Hamiltonian):
    """(s, idx, v): the ground state v of H sampled on the points idx, every
    s-th point with s = n // _COARSE_POINTS (the grid itself when n is below
    twice that), by LAPACK bisection ``dstebz`` for the lowest eigenvalue and
    inverse iteration ``dstein`` for its vector, the two calls that
    ``scipy.linalg.eigh_tridiagonal(select="i", select_range=(0, 0))`` makes.
    ValidationError when the coarse diagonal is not finite; ConvergenceError
    naming the routine when either returns a nonzero info.

    The coarse grid keeps H's potential values and scales the hopping by
    1/s^2; it is an open chain with ghost zeros past either end.  On a
    dirichlet grid it is chosen so that those fall within s points of the
    grid's own; on a ring it samples from point 0 and leaves the corners
    out: that tridiagonal part of the ring's H has a nearby, nodeless ground
    state.
    """
    lapack = _lapack()
    n = H.grid.points_per_dim[0]
    s = max(n // _COARSE_POINTS, 1)
    if H.grid.boundary == BOUNDARY_DIRICHLET:
        idx = np.arange(s - 1, n, s)[:(n + 1) // s - 1]
    else:
        idx = np.arange(0, n, s)
    coef = H.hopping(0) / s**2
    d, e = H.potential_values[idx] + 2 * coef, np.full(len(idx) - 1, -coef)
    if not np.all(np.isfinite(d)):  # the hopping is finite: V + 2 coef overflowed
        raise ValidationError("coarse tridiagonal band is not finite")
    # the lowest eigenvalue (index range 1..1, absolute tolerance 0: LAPACK's
    # default), in block order as dstein wants it
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info:
        raise ConvergenceError(f"LAPACK dstebz returned info = {info}")
    v, info = lapack.dstein(d, e, w[:m], iblock, isplit)
    if info:
        raise ConvergenceError(f"LAPACK dstein returned info = {info}")
    return s, idx, v[:, 0]


def _coarse_start(H: Hamiltonian) -> np.ndarray:
    """Start vector for a cold 1D solve: the coarse ground state
    (``_coarse_ground``) linearly interpolated back to the grid, on a
    dirichlet grid down to the coarse ghost zeros, on a ring around it."""
    s, idx, v = _coarse_ground(H)
    if s == 1:
        return v
    n = H.grid.points_per_dim[0]
    x = np.arange(n)
    if H.grid.boundary == BOUNDARY_DIRICHLET:
        return np.interp(x, np.concatenate(([idx[0] - s], idx, [idx[-1] + s])),
                         np.concatenate(([0.0], v, [0.0])))
    return np.interp(x, idx, v, period=n)


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

    One call allocates its work arrays once and each sweep fills them in
    place, ``dpttrs`` solving over the iterate itself; the operations and
    their order are those of a sweep that allocates its temporaries, so E, r
    and the vector come out bit for bit the same.  The start x is only read.
    """
    lapack = _lapack()
    dpttrf, dpttrs = lapack.dpttrf, lapack.dpttrs

    diag, off = H.tridiagonal()
    coef = H.hopping(0)
    floor = 10 * np.finfo(float).eps * (float(np.max(np.abs(diag))) + 2 * abs(coef))
    norm = float(np.linalg.norm(x))
    if not 0 < norm < math.inf:
        return None
    V = H.potential_values
    periodic = H.grid.boundary != BOUNDARY_DIRICHLET
    if periodic:
        diag = diag.copy()
        diag[[0, -1]] += coef  # T'
        u = np.zeros_like(V)
        u[[0, -1]] = 1.0
    # x with a neighbour beyond either end (the ghost zeros of a dirichlet
    # grid, the opposite end of a periodic one), its first differences, H x,
    # scratch, and the shifted diagonal that dpttrf factors in place
    ext = np.zeros(len(V) + 2)
    dx = np.empty(len(V) + 1)
    hx, work, shifted = np.empty_like(V), np.empty_like(V), np.empty_like(V)
    x = np.divide(x, norm, out=ext[1:-1])
    edges = dx[1:] if periodic else dx  # a ring's first and last dx are one edge

    def factor(sigma):  # an in-place solver of (H - sigma) y = b if H - sigma > 0, else None
        d, e, info = dpttrf(np.subtract(diag, sigma, out=shifted), off, overwrite_d=1)
        if info:
            return None
        if not periodic:
            return lambda b: dpttrs(d, e, b, overwrite_b=1)
        y = dpttrs(d, e, u)[0]
        den = 1.0 - coef * (y[0] + y[-1])
        if not den > 0:
            return None

        def solve(b):
            dpttrs(d, e, b, overwrite_b=1)
            b += np.multiply(y, coef * (b[0] + b[-1]) / den, out=work)

        return solve

    for sweep in range(_SWEEPS + 1):
        if periodic:
            ext[0], ext[-1] = x[-1], x[0]
        np.subtract(ext[1:], ext[:-1], out=dx)
        np.subtract(dx[1:], dx[:-1], out=hx)
        hx *= coef
        np.subtract(np.multiply(V, x, out=work), hx, out=hx)  # V x - coef (second difference)
        E = float(V @ np.multiply(x, x, out=work) + coef * (edges @ edges))
        np.subtract(hx, np.multiply(x, E, out=work), out=work)
        r = math.sqrt(work @ work)  # what np.linalg.norm computes for a 1D float array
        solve = factor(E - r - floor)
        if solve and r <= floor and sweep:
            return E, x, r
        if not solve:
            solve = factor(float(np.min(V)) - floor)
        if not solve or sweep == _SWEEPS:
            return None
        solve(x)
        x /= math.sqrt(x @ x)


def ground_state(H: Hamiltonian, *, start=None):
    """Lowest eigenpair of H; real, nodeless, unit norm under the grid quadrature.

    A 1D problem runs certified inverse iteration on LDL^T factors (LAPACK
    ``dpttrf``/``dpttrs``; a periodic H adds a Sherman-Morrison correction),
    started from ``start`` or, cold, from the LAPACK tridiagonal ground
    state of H on a coarse grid of about 128 points (``_coarse_start``).
    A 1D solve either certifies or raises: E is the Rayleigh quotient of the
    returned state, whose eigen-residual is at most 10 eps ||H||_inf, and
    the state passes a positive-definite certificate that E is the lowest
    eigenvalue (see ``_inverse_iteration``).  Separable multi-dimensional
    problems reduce to 1D ground states, each solved and certified on its
    own, and their product: each axis's state has unit norm, so the product
    has too, and each axis's residual bound implies the product's.

    ``start``, like ``eigsh``'s ``v0``, is an initial vector: a real array of
    the grid's shape, e.g. the ground state of a nearby H.  A 1D solve on
    either boundary then runs certified inverse iteration from it and falls
    back to the cold solve when it cannot certify; a multi-dimensional solve
    ignores it.  It changes the cost of the solve, and the eigenpair only at
    the level of rounding.

    ConvergenceError if a 1D solve, or any axis of a separable one, reaches
    no certificate within _SWEEPS solves of its cold start.  ValidationError
    for a multi-dimensional H whose potential is not separable.
    """
    grid = H.grid
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != grid.shape:
            raise ValidationError(f"start has shape {start.shape}, the grid {grid.shape}")
    if grid.dims > 1:
        if not H.potential.separable:
            raise ValidationError("multi-dimensional ground states require a separable potential")

        def axis_state(l, g1):  # (E, state) of the axis, each certified on its own
            E_l, psi_l = ground_state(Hamiltonian(g1, H.potential, (H.W_params[l],), H.units))
            return E_l, psi_l.values

        energies, vals = _separable_product(grid, axis_state,
                                            key=lambda l, g1: (g1, H.W_params[l]))
        return sum(energies), WaveField(grid, vals, H.units)
    # a warm start that cannot certify gives way to the cold one
    result = (start is not None and _inverse_iteration(H, start)
              or _inverse_iteration(H, _coarse_start(H)))
    if not result:
        raise ConvergenceError(f"inverse iteration reached no certificate within {_SWEEPS} "
                               f"solves of its cold start ({grid.boundary}, n = {grid.total_points})")
    E, vals, _ = result
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

    ``residual`` is |h(W)| = |W_model(C F sqrt(1 + W)) - W| of the returned
    state (see ``_model_trial``), the largest over the axes of a separable
    solve; ``history`` holds, per axis, the (W_k, C F_k) of every
    ground-state solve of that axis's closure, in order (with deformation it
    starts at W = 0 only where the coarse grid of a cold solve does not
    resolve the W = 0 state or, on a ring, that state does not vanish at the
    seam); ``eigen_residual`` is ||H psi - E psi|| / ||psi|| of the
    returned state (for a separable solve, the root sum of squares of the
    axes' residuals, which is the product state's residual when each axis
    energy is its Rayleigh quotient).
    """

    W_params: tuple
    energy: float
    psi: WaveField
    iterations: int
    residual: float
    converged: bool
    history: tuple
    eigen_residual: float


def _model_trial(c: float, model: DeformationModel) -> float:
    """The W at which z(W) = c / sqrt(1 + W): the consistent W if C F scales
    as (1 + W)^-1/2, as it does exactly for a quadratic well, with
    c = C F_k sqrt(1 + W_k) read off a solve at W_k.

    In s = sqrt(1 - 4 beta z), z sqrt(1 + W(z)) = (1 - s) / (2 beta sqrt(s)),
    so p = sqrt(s) solves p^2 + 2 a p - 1 = 0 with a = beta c; with
    p = 1 / (a + sqrt(a^2 + 1)) and t = 1 - s = 2 a p, both free of
    cancellation, W follows as in W_eval.
    """
    a = model.beta * c
    p = 1.0 / (a + math.hypot(a, 1.0))
    return _W_of_ts(2.0 * a * p, p * p)


def _solve_consistent_1d(grid, potential, model, units):
    """Root of h(W) = W_model(C F[psi_W] sqrt(1 + W)) - W, with W_model =
    ``_model_trial``, by a safeguarded secant iteration.  Every h costs one
    ground-state solve, started from the state of the previous one.

    h has the consistent W as its root, is positive below it and negative
    above it, and is defined for every W >= 0, a state outside the W domain
    included.  W + h(W) is the model trial from the solve at W: the root if
    C F scaled as (1 + W)^-1/2 from there, as it does for a quadratic well,
    where h is linear in W.  W_model is free of cancellation at the domain
    edge (dW_model / W_model ~ 2 dc / c), so h resolves W to a few rounding
    units of C F however close C F comes to 1/(4 beta).

    The first trial is W_model(C F_0), with C F_0 at W = 0 read off the
    coarse ground state that a cold solve starts from (``_coarse_ground``, F
    on the coarse spacing s) when that grid resolves the W = 0 state: at
    least 3 coarse points carry |v|^2 above RHO_FLOOR_FRAC of its peak, and
    C F_0 s^2 <= hbar^2; on a ring, that state must also vanish at the seam
    that its open chain cuts (|v|^2 at either end at most RHO_FLOOR_FRAC of
    its peak).  W = 0 is solved on the grid otherwise or when beta = 0.
    Each later trial is the secant step on the two latest (W, h), or the
    fixed-point step W + h after the first solve, clamped to [0, 1e15].  A
    trial outside the bracket (lo, hi), lo the largest W with h > 0 and hi
    the smallest with h < 0, gives way to 4 lo while there is no hi, so that
    box-like confinement, whose h stays positive, reaches W = 1e15 in a few
    dozen solves, and to sqrt(max(lo, min(1, hi / 4)) hi) after, which does
    not solve W = 0 twice.  h > 0 at W = 1e15 raises DomainError.  The
    closure stops once |h(W)| <= _TOL max(1, W) / 2 and reports |h(W)| as
    its residual.
    """
    hopping(grid, units, 0)  # its range check, before H evaluates the potential
    H0 = build_hamiltonian(grid, potential, (0.0,), units)
    W = 0.0
    if model.beta > 0:  # else W = 0 is consistent whatever the state
        stride, _, v = _coarse_ground(H0)
        coarse = Grid((len(v),), (stride * grid.spacing[0],), (0.0,))
        rho = v * v
        z0 = units.C * fisher_information(rho, 0, coarse) / integrate(rho, coarse)
        # a state narrower than s has fewer than 3 coarse points above F's density
        # floor, and reads F ~ 0 there, which the test on C F_0 s^2 would pass.
        # A ring's open coarse chain bends a state that reaches the seam (the flat
        # free one) down to zero there, and reads a C F_0 that the ring lacks
        floor = RHO_FLOOR_FRAC * rho.max()
        sealed = grid.boundary == BOUNDARY_DIRICHLET or max(rho[0], rho[-1]) <= floor
        if (sealed and np.count_nonzero(rho > floor) >= 3
                and z0 * coarse.spacing[0] ** 2 <= units.hbar**2):
            W = _model_trial(z0, model)
    state, history, best, previous, lo, hi = None, [], math.inf, None, 0.0, math.inf
    while True:
        if len(history) == _MAX_SOLVES:
            raise ConvergenceError(
                f"no convergence in {_MAX_SOLVES} iterations (best residual {best:.3e})")
        H = H0._with_W(W)
        # the previous iterate's state starts the solve: nearby W, nearby state
        E, psi = ground_state(H, start=state)
        state = psi.values.real
        z = units.C * fisher_information(state * state, 0, grid)
        history.append((W, z))
        h = _model_trial(z * math.sqrt(1.0 + W), model) - W
        best = min(best, abs(h))
        if abs(h) <= 0.5 * _TOL * max(1.0, W):
            return ConsistencyResult((W,), E, psi, len(history), abs(h), True,
                                     (tuple(history),), _eigen_residual(H, state, E))
        if h < 0:
            hi = W
        elif W < _W_MAX:
            lo = W
        else:
            raise DomainError(f"C*F stays at or above 1/(4 beta) up to W = {_W_MAX:g}: "
                              "physically excluded regime")
        step = W + h
        if previous and h != previous[1]:
            step = W - h * (W - previous[0]) / (h - previous[1])
        previous, W = (W, h), min(max(step, 0.0), _W_MAX)
        if not lo < W < hi:
            W = min(4.0 * lo, _W_MAX) if hi == math.inf else math.sqrt(max(lo, min(1.0, hi / 4)) * hi)


def _separable_product(grid, axis_state, key=lambda l, g1: g1):
    """Per-axis results of axis_state(l, grid_1d) -> (result, 1D state),
    computed once per distinct key(l, grid_1d), and the outer product of the
    states, built in one pass per axis.  The grid quadrature is the product
    of the axes', so the product of unit-norm states has unit norm."""
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
                     units: UnitsConfig = UnitsConfig()) -> ConsistencyResult:
    """Solve the stationary problem together with its consistency closure.

    Per axis, the closure W = W(C F[psi_W]) is solved in the model
    variable: the root of h(W) = W_model(C F[psi_W] sqrt(1 + W)) - W, where
    W_model(c) is the W that would be consistent if C F scaled as
    (1 + W)^-1/2 from the solve at W (exact for a quadratic well).  h is defined for every W >= 0,
    so states narrow enough to lie outside the W domain (C F >= 1/(4 beta))
    need no special treatment, and it resolves W however close C F comes to
    that edge, which is where the minimal length Delta x -> hbar sqrt(beta)
    lies; without deformation the one solve at W = 0 converges.  The first
    trial is W_model(C F) at W = 0, read off the coarse grid of a cold solve
    when that grid resolves the W = 0 state (on a ring, one that vanishes at
    the seam), W = 0 itself otherwise; then come
    safeguarded secant steps (see ``_solve_consistent_1d``).  Each closure's
    first eigen-solve is cold and starts on a coarse grid; the others start
    from the previous state.  Convergence means |h(W)| <= _TOL max(1, W) / 2,
    with the module constant _TOL = 1e-8, and ``residual`` reports |h(W)|.
    ``iterations`` counts every ground-state solve; a separable solve runs
    one closure per distinct axis, reports the largest count, and returns the
    outer product of the axes' unit-norm states.

    DomainError is raised when h stays positive up to W = 1e15, that is when
    no effective mass brings C*F below the W domain edge (e.g. box-like
    confinement with F bounded from below); ConvergenceError when _MAX_SOLVES
    (200) solves do not meet the stopping test; ValidationError, before any
    array is built, when an axis's coupling hbar^2 / (2 m dx^2) is outside
    double precision.
    """
    if grid.dims == 1:
        return _solve_consistent_1d(grid, potential, model, units)
    if not potential.separable:
        raise ValidationError("multi-dimensional consistency solves require a separable potential")

    def axis_state(l, g1):  # separable case: per-axis closures are independent
        r1 = _solve_consistent_1d(g1, potential, model, units)
        return r1, r1.psi.values

    rs, vals = _separable_product(grid, axis_state)
    return ConsistencyResult(tuple(r.W_params[0] for r in rs), sum(r.energy for r in rs),
                             WaveField(grid, vals, units), max(r.iterations for r in rs),
                             max(r.residual for r in rs), True, tuple(r.history[0] for r in rs),
                             math.hypot(*(r.eigen_residual for r in rs)))


def nu_of_q(q):
    """Closed-form deformation parameter of the harmonic ground state.

    nu(q) = q/(1+q^2) * (4 sqrt(1+q^2) + q (7 + 8 q (q + sqrt(1+q^2)))),
    nonnegative and increasing, asymptotically 16 q^2.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ValidationError("q must be nonnegative")
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
    nu = nu(q), sigma^2 = sigma0^2 sqrt(1+nu); ValidationError when sigma0^2
    is 0 or infinite in double precision, as when hbar^2 overflows."""
    beta, zeta = DeformationModel(beta).beta, PotentialSpec.harmonic(zeta).zeta  # their checks
    zm = zeta * units.mass
    try:
        sigma0_sq = math.sqrt(units.hbar**2 / zm) if zm > 0 else math.inf
    except OverflowError:  # Python's float ** raises, not inf
        sigma0_sq = math.inf
    if not 0 < sigma0_sq < math.inf:
        raise ValidationError(f"sigma0^2 = sqrt(hbar^2 / (zeta m)) = {sigma0_sq:g}: outside "
                              "the range of double precision")
    q = units.hbar**2 * beta / (2 * sigma0_sq)
    nu = nu_of_q(q)
    return HarmonicAnalytic(sigma0_sq, q, nu, sigma0_sq * math.sqrt(1.0 + nu))


def ermakov_width(beta: float, zeta: float, X0: float, V0: float, t,
                  units: UnitsConfig = UnitsConfig()):
    """Width X = Delta x of a Gaussian packet per axis under the deformed
    evolution in the well 0.5 zeta x^2 (zeta = 0: a free packet), at the
    times t, a number or an ascending array that ends after 0.

    A Gaussian stays Gaussian, since d^2|psi| / |psi| is quadratic for it, and
    its F = 1/X^2 gives the Ermakov equation
    X'' = -(zeta/m) X + hbar^2 (1 + W(hbar^2 / (4 X^2))) / (4 m^2 X^3),
    from X(0) = X0 and X'(0) = V0.  Its fixed point is harmonic_analytic's
    X^2 = sigma^2 / 2.  Solved by scipy's solve_ivp (DOP853) at rtol 1e-12
    for d = X - hbar sqrt(beta), the distance to the edge of the W domain.
    DomainError when X0 lies past the edge, or naming the time t* at which X
    comes within 1e-9 relative of it (closer in, W's 1/sqrt(d) singularity
    needs steps below the spacing of t); ConvergenceError when the integrator
    gives up.
    """
    model = DeformationModel(beta)
    ts = np.asarray(t, dtype=float)
    times = np.atleast_1d(ts)
    if not (0 <= zeta < math.inf and 0 < X0 and 0 < X0 * X0 < math.inf and math.isfinite(V0)):
        raise ValidationError("zeta must be nonnegative and finite, X0 positive with X0^2 "
                              "finite and positive, V0 finite")
    if not (np.all(np.isfinite(times)) and times[0] >= 0 and np.all(np.diff(times) >= 0)
            and times[-1] > 0):
        raise ValidationError("t must be finite, nonnegative and ascending, and end after 0")
    C, m = units.C, units.mass  # C = hbar^2 / 4
    W_eval(C / (X0 * X0), model)  # its DomainError for a packet that starts past the edge
    edge = units.hbar * math.sqrt(model.beta)  # where C / X^2 = 1/(4 beta)
    # imported here: with the scipy.linalg it loads, it costs about 0.5 s,
    # which every `import gupnlse` would pay
    from scipy.integrate import solve_ivp

    def rhs(_, y):
        d, V = y  # d = X - edge is integrated itself, so its rounding shrinks with it
        if not d > 0:  # a stage past the edge, in a step the event ends: free flight
            return [V, 0.0]
        X = edge + d
        # s^2 = 1 - 4 beta C / X^2 = d (X + edge) / X^2 to full relative accuracy,
        # however close X comes to the edge; W follows as in W_eval
        s = math.sqrt((d / X) * ((X + edge) / X))
        W = _W_of_ts((edge / X) ** 2 / (1.0 + s), s)
        return [V, -(zeta / m) * X + C * (1.0 + W) / (m * m * X**3)]

    def reaches_edge(_, y):
        return y[0] - 1e-9 * edge

    reaches_edge.terminal, reaches_edge.direction = True, -1
    sol = solve_ivp(rhs, (0.0, times[-1]), [X0 - edge, V0], method="DOP853", t_eval=times,
                    rtol=1e-12, atol=1e-12 * X0, events=reaches_edge if edge > 0 else None)
    if sol.status == 1:
        raise DomainError(f"Ermakov equation: X reaches the W domain edge hbar sqrt(beta) = "
                          f"{edge:g} at t* = {sol.t_events[0][0]:.6g}: the packet enters the "
                          "physically excluded regime")
    if not sol.success:
        raise ConvergenceError(f"Ermakov equation: {sol.message}")
    X = sol.y[0] + edge
    return X if ts.ndim else float(X[0])


def min_position_uncertainty_scan(beta: float, q_grid, units: UnitsConfig = UnitsConfig()):
    """Ground-state position variance along the stiffness sweep.

    Returns ((Delta x)^2 per q, infimum estimate).  The sequence
    (hbar^2 beta / 4) q^-1 sqrt(1 + nu(q)) decreases monotonically and
    approaches hbar^2 beta from above, the minimal-length limit.
    """
    if beta <= 0:
        raise ValidationError("beta must be positive")
    q = np.asarray(q_grid, dtype=float)
    if np.any(q <= 0):
        raise ValidationError("q_grid must be positive")
    vals = units.C * beta * np.sqrt(1.0 + nu_of_q(q)) / q  # C beta = hbar^2 beta / 4
    return vals, float(vals[np.argmax(q)])


def gup_min_uncertainty_product(beta: float, delta_p, units: UnitsConfig = UnitsConfig()):
    """Minimal Delta x allowed by the deformed relation at given Delta p:
    hbar (1 + beta dp^2) / (2 dp).  Minimized over dp this is hbar sqrt(beta)."""
    dp = np.asarray(delta_p, dtype=float)
    return units.hbar * (1.0 + beta * dp**2) / (2.0 * dp)
