"""Effective-mass eigenproblem, consistency closure and the closed-form oracles."""

import importlib.machinery
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, eigh_tridiagonal, eigvalsh
from scipy.linalg.lapack import dpttrf, dpttrs, dstebz
from scipy.optimize import minimize_scalar

import gupnlse
from gupnlse import (
    ConvergenceError,
    DeformationModel,
    DomainError,
    Grid,
    PotentialSpec,
    UnitsConfig,
    ValidationError,
    W_eval,
    build_hamiltonian,
    density,
    fisher_per_dim,
    ground_state,
    gaussian_state,
    harmonic_analytic,
    inner_product,
    integrate,
    min_position_uncertainty_scan,
    nu_of_q,
    position_stats,
    solve_consistent,
    stationary,
)
from gupnlse.stationary import gup_min_uncertainty_product

UNITS = UnitsConfig()


def oscillator_grid(sigma, points=1024, n_sigma=10.0, boundary="dirichlet"):
    return Grid.centered(n_sigma * sigma, points, boundary=boundary)


class TestPotential:
    def test_harmonic_values(self):
        g = Grid.centered(4.0, 33, dims=2)
        V = PotentialSpec.harmonic(2.0).evaluate(g)
        X, Y = g.meshgrid()
        assert np.allclose(V, 1.0 * (X**2 + Y**2))

    def test_validation(self):
        with pytest.raises(ValueError):
            PotentialSpec.harmonic(-1.0)
        with pytest.raises(ValueError):
            PotentialSpec("tabulated")

    @pytest.mark.parametrize("make", [
        lambda: PotentialSpec.harmonic(math.nan),
        lambda: PotentialSpec.harmonic(math.inf),
        lambda: PotentialSpec.tabulated([0.0, math.nan, 1.0]),
        lambda: PotentialSpec.tabulated([0.0, 1.0, -math.inf]),
    ], ids=["harmonic-nan", "harmonic-inf", "tabulated-nan", "tabulated-inf"])
    def test_non_finite_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_tabulated_matches_harmonic(self):
        g = Grid.centered(10.0, 512)
        V = PotentialSpec.harmonic(1.0).evaluate(g)
        tab = PotentialSpec.tabulated(V)
        E_t, psi_t = ground_state(build_hamiltonian(g, tab, [0.0], UNITS))
        E_h, psi_h = ground_state(build_hamiltonian(g, PotentialSpec.harmonic(1.0), [0.0], UNITS))
        assert E_t == pytest.approx(E_h, abs=1e-12)
        assert np.max(np.abs(psi_t.values - psi_h.values)) <= 1e-10

    def test_tabulated_2d_is_not_separable(self):
        g = Grid.centered(6.0, 32, dims=2)
        X, Y = g.meshgrid()
        tab = PotentialSpec.tabulated(0.5 * (X**2 + Y**2) + 0.1 * X * Y)
        assert not tab.separable and PotentialSpec.harmonic(1.0).separable
        with pytest.raises(ValueError, match="separable"):
            ground_state(build_hamiltonian(g, tab, [0.0, 0.0], UNITS))
        with pytest.raises(ValueError, match="separable"):
            solve_consistent(g, tab, DeformationModel.gup(0.1), UNITS)


class TestHamiltonian:
    def test_free_matches_plain_laplacian(self):
        g = Grid.centered(5.0, 64)
        H = build_hamiltonian(g, PotentialSpec.free(), [0.0], UNITS)
        rng = np.random.default_rng(3)
        f = rng.normal(size=64)
        dx = g.spacing[0]
        man = np.zeros(64)
        man[1:-1] = -(f[2:] - 2 * f[1:-1] + f[:-2]) / (2 * dx**2)
        man[0] = -(f[1] - 2 * f[0]) / (2 * dx**2)
        man[-1] = -(f[-2] - 2 * f[-1]) / (2 * dx**2)
        assert np.allclose(H.matvec(f), man, atol=1e-12)

    def test_symmetry_random_vectors(self):
        from gupnlse.fields import _diff1

        rng = np.random.default_rng(7)
        for boundary in ("dirichlet", "periodic"):
            g = Grid.centered(6.0, 96, boundary=boundary)
            H = build_hamiltonian(g, PotentialSpec.harmonic(1.3), [0.2], UNITS)
            # -i hbar d/dx, the momentum of momentum_stats on dirichlet grids
            p = lambda f: -1j * UNITS.hbar * _diff1(f, g, 0)
            for op in (H.matvec, p):
                for _ in range(5):
                    phi = rng.normal(size=96) + 1j * rng.normal(size=96)
                    chi = rng.normal(size=96) + 1j * rng.normal(size=96)
                    lhs = inner_product(phi, op(chi), g)
                    rhs = inner_product(op(phi), chi, g)
                    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_symmetry_2d(self):
        rng = np.random.default_rng(11)
        g = Grid.centered(5.0, 24, dims=2)
        # bypass the >=16-points guard is not needed: 24 points is fine
        H = build_hamiltonian(g, PotentialSpec.harmonic(1.0), [0.1, 0.3], UNITS)
        phi = rng.normal(size=(24, 24))
        chi = rng.normal(size=(24, 24))
        lhs = inner_product(phi, H.matvec(chi), g)
        rhs = inner_product(H.matvec(phi), chi, g)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("dims", [1, 2])
    def test_non_finite_hopping_is_rejected(self, dims):
        # dx^2 underflows to 0: tridiagonal and matvec raise the same error
        g = Grid.centered(1e-160, 64, dims=dims)
        H = build_hamiltonian(g, PotentialSpec.harmonic(1.0), [0.0] * dims, UNITS)
        with pytest.raises(ValidationError, match="not finite"):
            H.matvec(np.ones(g.shape))
        with pytest.raises(ValidationError, match="not finite"):
            ground_state(H)
        if dims == 1:
            with pytest.raises(ValidationError, match="not finite"):
                H.tridiagonal()

    def test_shifted_mass_oscillator_eigenvalues(self):
        # W = 0.1 multiplies the Laplacian: omega_eff = sqrt(1.1 zeta / m)
        g = Grid.centered(12.0, 1024)
        H = build_hamiltonian(g, PotentialSpec.harmonic(1.0), [0.1], UNITS)
        diag, off = H.tridiagonal()
        E, _ = eigh_tridiagonal(diag, off, select="i", select_range=(0, 2))
        omega = math.sqrt(1.1)
        for n in range(3):
            assert E[n] == pytest.approx(omega * (n + 0.5), rel=2e-4)


class TestGroundState:
    def test_linear_oscillator(self):
        g = oscillator_grid(1.0)
        H = build_hamiltonian(g, PotentialSpec.harmonic(1.0), [0.0], UNITS)
        E, psi = ground_state(H)
        assert E == pytest.approx(0.5, rel=1e-4)
        assert abs(psi.norm() - 1.0) <= 1e-10
        assert np.max(np.abs(psi.values.imag)) == 0.0

    def test_periodic_oscillator_matches_dirichlet(self):
        # the sparse shift-invert path at n = 1024 gives omega/2 as in
        # test_shifted_mass_oscillator_eigenvalues; on the same points the
        # dirichlet solve agrees, since the state vanishes at the ends
        g = Grid.centered(12.0, 1024, boundary="periodic")
        H = build_hamiltonian(g, PotentialSpec.harmonic(1.0), [0.1], UNITS)
        E, psi = ground_state(H)
        assert E == pytest.approx(math.sqrt(1.1) * 0.5, rel=2e-4)
        g_d = Grid(g.points_per_dim, g.spacing, g.origin, "dirichlet")
        E_d, psi_d = ground_state(build_hamiltonian(g_d, PotentialSpec.harmonic(1.0), [0.1], UNITS))
        assert E == pytest.approx(E_d, rel=1e-11)
        assert np.max(np.abs(psi.values - psi_d.values)) <= 1e-11

    def test_free_periodic_constant(self):
        g = Grid.centered(8.0, 64, boundary="periodic")
        H = build_hamiltonian(g, PotentialSpec.free(), [0.0], UNITS)
        E, psi = ground_state(H)
        assert abs(E) <= 1e-12
        vals = np.real(psi.values)
        assert np.max(np.abs(vals - vals[0])) <= 1e-10

    def test_residual_bound(self):
        g = oscillator_grid(1.0)
        H = build_hamiltonian(g, PotentialSpec.harmonic(1.0), [0.37], UNITS)
        E, psi = ground_state(H)
        r = H.matvec(np.real(psi.values)) - E * np.real(psi.values)
        res = math.sqrt(float(np.sum(r**2)) * g.cell_volume())
        assert res <= 1e-9 * abs(E)

    def test_fixed_W_width_matches_closed_form(self):
        # with W frozen at nu the ground state has sigma^2 = sigma0^2 sqrt(1+nu)
        nu = 1.7
        g = oscillator_grid(math.sqrt(math.sqrt(1 + nu)), points=1024)
        H = build_hamiltonian(g, PotentialSpec.harmonic(1.0), [nu], UNITS)
        E, psi = ground_state(H)
        _, delta = position_stats(psi)
        sigma_sq = 2 * delta[0] ** 2
        assert sigma_sq == pytest.approx(math.sqrt(1 + nu), rel=1e-4)

    def test_separable_2d_product(self):
        g = Grid.centered(10.0, 256, dims=2)
        H = build_hamiltonian(g, PotentialSpec.harmonic(1.0), [0.0, 0.5], UNITS)
        E, psi = ground_state(H)
        assert E == pytest.approx(0.5 + math.sqrt(1.5) / 2, rel=1e-3)
        F = fisher_per_dim(psi)
        assert F[1] < F[0]  # heavier effective mass along axis 1 spreads the state

    def test_no_certificate_raises(self, monkeypatch):
        # a 1D solve certifies or raises, on either boundary: it has no fallback
        monkeypatch.setattr(stationary, "_SWEEPS", 0)  # no sweep can certify
        for boundary in ("dirichlet", "periodic"):
            g = Grid.centered(12.0, 256, boundary=boundary)
            H = build_hamiltonian(g, PotentialSpec.harmonic(1.0), [0.3], UNITS)
            with pytest.raises(ConvergenceError, match=f"no certificate.*{boundary}"):
                ground_state(H)

    def test_homogeneity_of_frozen_W_equation(self):
        # A psi solves the same eigen-equation before the closure is applied
        g = oscillator_grid(1.0, points=512)
        H = build_hamiltonian(g, PotentialSpec.harmonic(1.0), [0.8], UNITS)
        E, psi = ground_state(H)
        base = np.real(psi.values)
        r0 = H.matvec(base) - E * base
        for A in (2.0**-12, 2.0**9):
            rA = H.matvec(A * base) - E * (A * base)
            assert np.array_equal(rA / A, r0)  # power-of-two scaling is exact


class TestWarmStart:
    @given(
        n=st.integers(64, 4096),
        W_prev=st.floats(0.0, 20.0),
        W=st.floats(0.0, 20.0),
        zeta=st.floats(0.5, 2.0),
        quartic=st.floats(0.0, 0.5),
        tilt=st.floats(-1.0, 1.0),
        tabulated=st.booleans(),
        boundary=st.sampled_from(["dirichlet", "periodic"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_warm_matches_cold(self, n, W_prev, W, zeta, quartic, tilt, tabulated, boundary):
        g = Grid.centered(8.0, n, boundary=boundary)
        pot = PotentialSpec.harmonic(zeta)
        if tabulated:  # anharmonic and, with a tilt, asymmetric
            x = g.axis(0)
            V = 0.5 * zeta * x**2 + quartic * x**4 + tilt * x
            pot = PotentialSpec.tabulated(V - V.min())
        H = build_hamiltonian(g, pot, [W], UNITS)
        E_cold, psi_cold = ground_state(H)
        _, psi_prev = ground_state(build_hamiltonian(g, pot, [W_prev], UNITS))
        cold_solves = []
        with pytest.MonkeyPatch.context() as mp:
            # stationary reads it from this module at call time: the spy sees
            # every cold start
            mp.setattr(stationary._lapack(), "dstebz",
                       lambda *a, **k: cold_solves.append(a) or dstebz(*a, **k))
            E, psi = ground_state(H, start=psi_prev.values.real)
        assert not cold_solves  # the warm path certified its own result
        assert E == pytest.approx(E_cold, rel=1e-12)
        assert np.max(np.abs(psi.values - psi_cold.values)) <= 1e-9

    def test_excited_start_returns_ground_state(self):
        # inverse iteration alone would stay on the first excited state: only
        # the positive-definite certificate sends this solve to the cold path
        g = oscillator_grid(1.0)
        H = build_hamiltonian(g, PotentialSpec.harmonic(1.0), [0.3], UNITS)
        _, v1 = eigh_tridiagonal(*H.tridiagonal(), select="i", select_range=(1, 1))
        E, psi = ground_state(H, start=v1[:, 0])
        E_cold, psi_cold = ground_state(H)
        assert E == pytest.approx(E_cold, rel=1e-12)
        assert np.max(np.abs(psi.values - psi_cold.values)) <= 1e-9
        with pytest.raises(ValueError, match="start"):
            ground_state(H, start=v1[:-1, 0])

    @pytest.mark.parametrize("q,points,boundary", [
        *(pytest.param(q, n, "dirichlet", id=f"{q}-{n}")
          for q, n in [(0.01, 1024), (0.1, 1024), (1.0, 1024), (5.0, 1024), (5.0, 4096)]),
        *(pytest.param(q, 256, "periodic", id=f"{q}-256-periodic") for q in (0.1, 1.0, 5.0)),
    ])
    def test_warm_closure_matches_cold(self, q, points, boundary, monkeypatch):
        # at q = 5 on 4096 points, the last secant step changes W by ~1e-6
        # relative; a warm solve that returned its start unchanged there would
        # hand the closure the previous step's Fisher information
        beta = 2.0 * q
        ana = harmonic_analytic(beta, 1.0, UNITS)
        g = oscillator_grid(math.sqrt(ana.sigma_sq), points=points, boundary=boundary)
        args = (g, PotentialSpec.harmonic(1.0), DeformationModel.gup(beta), UNITS)
        warm = solve_consistent(*args)
        cold_ground_state = stationary.ground_state
        monkeypatch.setattr(stationary, "ground_state", lambda H, start: cold_ground_state(H))
        cold = solve_consistent(*args)
        assert warm.iterations == cold.iterations
        assert warm.W_params[0] == pytest.approx(cold.W_params[0], rel=1e-10)


class TestColdStart:
    WELLS = {"harmonic": lambda x: 0.5 * x**2, "quartic": lambda x: 0.25 * x**4,
             "double-well": lambda x: 0.3 * (x**2 - 2) ** 2}
    # deep symmetric double wells A (x^2 - 4)^2 / 16 on +-4.  From A = 400 on,
    # the tunnelling gap E_1 - E_0 is below rounding, and the certificate admits
    # a one-sided mix of the two well states: only their energies are compared
    DEEP = (1.0, 400.0, 1e5)

    @pytest.mark.parametrize("points,boundary,W,well,extent", [
        *(pytest.param(n, b, W, well, 8.0, id=f"{well}-{W}-{n}-{b}") for well in sorted(WELLS)
          for W in (0.0, 4.0, 400.0) for n, b in ((4096, "dirichlet"), (1024, "periodic"))),
        *(pytest.param(2048, b, 0.0, A, 4.0, id=f"deep-double-well-{A:g}-{b}") for A in DEEP
          for b in ("dirichlet", "periodic")),
    ])
    def test_coarse_start_matches_full_size(self, points, boundary, W, well, extent, monkeypatch):
        g = Grid.centered(extent, points, boundary=boundary)
        pos = g.axis(0)
        V = self.WELLS[well](pos) if well in self.WELLS else well * (pos**2 - 4) ** 2 / 16
        H = build_hamiltonian(g, PotentialSpec.tabulated(V), [W], UNITS)
        sizes = []
        # stationary reads it from this module at call time: the spy sees every call
        monkeypatch.setattr(stationary._lapack(), "dstebz",
                            lambda d, e, *a: sizes.append(len(d)) or dstebz(d, e, *a))
        E, psi = ground_state(H)
        assert sizes and max(sizes) <= 128  # only the coarse grid
        # the full-size start: the tridiagonal ground state, certified
        diag, off = H.tridiagonal()
        _, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
        E_full, x, _ = stationary._inverse_iteration(H, v[:, 0])
        if well in self.WELLS:
            x = x / math.sqrt(integrate(x * x, g)) * np.sign(np.sum(x))
            assert E == pytest.approx(E_full, rel=1e-12)
            assert np.max(np.abs(psi.values - x)) <= 1e-9
        else:
            # each certificate puts E_0 within r + floor <= 2 floor of its E,
            # floor = 10 eps (max|diag| + 2 coef)
            bound = 20 * np.finfo(float).eps * (np.max(np.abs(diag)) + 2 * abs(off[0]))
            assert abs(E - E_full) <= bound


def _reference_inverse_iteration(H, x):
    """stationary._inverse_iteration as a sweep that allocates its
    temporaries: the reference its in-place sweep must match bit for bit."""
    diag, off = H.tridiagonal()
    coef = -float(off[0])
    floor = 10 * np.finfo(float).eps * (float(np.max(np.abs(diag))) + 2 * abs(coef))
    norm = float(np.linalg.norm(x))
    if not 0 < norm < math.inf:
        return None
    x = x / norm
    V = H.potential_values
    periodic = H.grid.boundary != "dirichlet"
    if periodic:
        diag = diag.copy()
        diag[[0, -1]] += coef
        u = np.zeros_like(V)
        u[[0, -1]] = 1.0

    def factor(sigma):
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

    for sweep in range(stationary._SWEEPS + 1):
        dx = np.diff(np.concatenate((x[-1:], x, x[:1]) if periodic else ([0.0], x, [0.0])))
        y = V * x - coef * np.diff(dx)
        edges = dx[1:] if periodic else dx
        E = float(V @ (x * x) + coef * (edges @ edges))
        r = float(np.linalg.norm(y - E * x))
        solve = factor(E - r - floor)
        if solve and r <= floor and sweep:
            return E, x, r
        if not solve:
            solve = factor(float(np.min(V)) - floor)
        if not solve or sweep == stationary._SWEEPS:
            return None
        x = solve(x)
        x /= np.linalg.norm(x)


class TestInPlaceEigenSolve:
    @given(
        n=st.integers(64, 4096),
        boundary=st.sampled_from(["dirichlet", "periodic"]),
        well=st.sampled_from(["harmonic", "tilted-quartic", "double-well"]),
        W=st.floats(0.0, 20.0),
        a=st.floats(0.05, 0.5),
        b=st.floats(-1.0, 2.5),
        noise=st.floats(1e-12, 1e-1),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_allocating_sweep(self, n, boundary, well, W, a, b, noise, seed):
        g = Grid.centered(8.0, n, boundary=boundary)
        x = g.axis(0)
        if well == "harmonic":
            V = 0.5 * (4 * a) * x**2
        elif well == "tilted-quartic":
            V = 0.5 * x**2 + a * x**4 + b * x
            V = V - V.min()
        else:
            V = a * (x**2 - b**2) ** 2
        H = build_hamiltonian(g, PotentialSpec.tabulated(V), [W], UNITS)
        # the coarse eigenpair is eigh_tridiagonal's, bit for bit
        s, idx, v = stationary._coarse_ground(H)
        coef = -float(H.tridiagonal()[1][0]) / s**2
        _, v_ref = eigh_tridiagonal(H.potential_values[idx] + 2 * coef,
                                    np.full(len(idx) - 1, -coef), select="i", select_range=(0, 0))
        assert np.array_equal(v, v_ref[:, 0])
        rng = np.random.default_rng(seed)
        x0 = stationary._coarse_start(H)
        _, v1 = eigh_tridiagonal(*H.tridiagonal(), select="i", select_range=(1, 1))
        for start in (x0, x0 * (1 + noise * rng.standard_normal(n)),
                      x0 + noise * rng.standard_normal(n), v1[:, 0]):
            kept = start.copy()
            got, ref = stationary._inverse_iteration(H, start), _reference_inverse_iteration(H, start)
            assert np.array_equal(start, kept)  # the start is only read
            assert (got is None) == (ref is None)
            if got is not None:
                assert got[0] == ref[0] and got[2] == ref[2]
                assert np.array_equal(got[1], ref[1])

    def test_non_finite_coarse_band_raises(self):
        # 2 coef + V overflows at the largest double (numpy warns, here
        # silenced): eigh_tridiagonal's finiteness check, kept as a
        # ValidationError, a ValueError as before
        g = Grid.centered(8.0, 64)
        H = build_hamiltonian(g, PotentialSpec.tabulated(np.full(64, np.finfo(float).max)),
                              [1e300], UNITS)
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="not finite"):
            ground_state(H)

    @pytest.mark.parametrize("routine", ["dstebz", "dstein"])
    def test_lapack_failure_raises(self, routine, monkeypatch):
        # a nonzero info from either coarse routine: ConvergenceError naming it
        lapack = stationary._lapack()
        real = getattr(lapack, routine)
        monkeypatch.setattr(lapack, routine, lambda *a: (*real(*a)[:-1], 1))
        g = Grid.centered(8.0, 256)
        H = build_hamiltonian(g, PotentialSpec.harmonic(1.0), [0.3], UNITS)
        with pytest.raises(ConvergenceError, match=routine):
            ground_state(H)


def ring_matrix(H):
    """Dense periodic H: its tridiagonal bands and the two corners."""
    diag, off = H.tridiagonal()
    M = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    M[0, -1] = M[-1, 0] = off[0]
    return M


def ring_potential(kind, grid, a, b):
    x = grid.axis(0)
    if kind == "harmonic":
        return PotentialSpec.harmonic(a)
    if kind == "free":
        return PotentialSpec.free()
    if kind == "tilted-quartic":
        V = 0.5 * x**2 + a * x**4 + b * x
        return PotentialSpec.tabulated(V - V.min())
    return PotentialSpec.tabulated(a * (x**2 - b**2) ** 2)  # double well


class TestPeriodicCertified:
    @given(
        kind=st.sampled_from(["harmonic", "free", "tilted-quartic", "double-well"]),
        n=st.integers(64, 1024),
        W=st.floats(0.0, 20.0),
        a=st.floats(0.05, 0.5),
        b=st.floats(-1.0, 2.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_energy_matches_dense_ring(self, kind, n, W, a, b):
        g = Grid.centered(8.0, n, boundary="periodic")
        H = build_hamiltonian(g, ring_potential(kind, g, 4 * a if kind == "harmonic" else a, b),
                              [W], UNITS)
        E, psi = ground_state(H)
        M = ring_matrix(H)
        E0 = eigvalsh(M, subset_by_index=[0, 0])[0]
        assert abs(E - E0) <= 100 * np.finfo(float).eps * np.max(np.sum(np.abs(M), axis=1))
        vals = psi.values.real
        assert np.all(vals >= -1e-12 * np.max(vals))  # nodeless

    def test_excited_start_returns_ground_state(self):
        # inverse iteration from the first excited ring mode: only the
        # determinant-lemma certificate sends this solve to the cold path
        g = Grid.centered(12.0, 256, boundary="periodic")
        H = build_hamiltonian(g, PotentialSpec.harmonic(1.0), [0.3], UNITS)
        _, v = eigh(ring_matrix(H), subset_by_index=[0, 1])
        E, psi = ground_state(H, start=v[:, 1])
        E_cold, psi_cold = ground_state(H)
        assert E == pytest.approx(E_cold, rel=1e-12)
        assert np.max(np.abs(psi.values - psi_cold.values)) <= 1e-9


class TestNuOfQ:
    def test_zero(self):
        assert nu_of_q(0.0) == 0.0

    def test_exact_value_at_one(self):
        assert abs(nu_of_q(1.0) - (7.5 + 6 * math.sqrt(2))) <= 1e-12

    def test_asymptote_at_ten(self):
        r = nu_of_q(10.0) / 1600.0
        assert 0.9990 <= r <= 0.9997
        assert r == pytest.approx(0.99939, abs=1e-4)

    def test_increasing_nonnegative(self):
        q = np.logspace(-3, 3, 200)
        nu = nu_of_q(q)
        assert np.all(nu >= 0)
        assert np.all(np.diff(nu) > 0)

    def test_small_q_linear_regime(self):
        assert nu_of_q(0.01) == pytest.approx(0.0407060097490176, rel=1e-12)


class TestHarmonicAnalytic:
    @pytest.mark.parametrize("beta,zeta", [(math.nan, 1.0), (math.inf, 1.0),
                                           (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_rejected(self, beta, zeta):
        with pytest.raises(ValueError, match="finite"):
            harmonic_analytic(beta, zeta, UNITS)

    def test_beta_zero(self):
        ana = harmonic_analytic(0.0, 1.0, UNITS)
        assert ana.q == 0.0 and ana.nu == 0.0
        assert ana.sigma_sq == ana.sigma0_sq == 1.0

    def test_beta_two_composition(self):
        ana = harmonic_analytic(2.0, 1.0, UNITS)
        assert ana.sigma0_sq == 1.0
        assert ana.q == 1.0
        assert ana.nu == pytest.approx(15.98528137423857, abs=1e-10)
        assert ana.sigma_sq == pytest.approx(4.121320343559643, abs=1e-10)

    @pytest.mark.parametrize("q", [0.01, 0.1, 1.0, 5.0, 10.0])
    def test_closed_form_solves_consistency(self, q):
        # W(C * 2/sigma^2) equals nu: the algebraic closure is satisfied
        beta = 2.0 * q  # sigma0 = 1 when zeta = m = hbar = 1
        ana = harmonic_analytic(beta, 1.0, UNITS)
        model = DeformationModel.gup(beta)
        z = UNITS.C * 2.0 / ana.sigma_sq
        assert W_eval(z, model) == pytest.approx(ana.nu, rel=1e-10)


class TestMinLengthScan:
    def test_monotone_decreasing(self):
        q = np.logspace(-2, 2, 200)
        vals, _ = min_position_uncertainty_scan(1.0, q, UNITS)
        assert np.all(np.diff(vals) < 0)

    def test_limit_is_minimal_length(self):
        for beta in (0.5, 1.0, 3.0):
            vals, inf_est = min_position_uncertainty_scan(beta, np.logspace(-2, 2, 50), UNITS)
            assert inf_est == pytest.approx(beta, rel=1e-4)  # hbar^2 beta with hbar=1

    def test_direct_gup_optimum(self):
        # independent optimization of the uncertainty product
        beta = 0.7
        res = minimize_scalar(
            lambda p: gup_min_uncertainty_product(beta, p, UNITS),
            bounds=(1e-3, 1e3), method="bounded",
            options={"xatol": 1e-12},
        )
        assert res.fun == pytest.approx(math.sqrt(beta), rel=1e-8)
        assert gup_min_uncertainty_product(beta, 1 / math.sqrt(beta), UNITS) == pytest.approx(
            math.sqrt(beta), rel=1e-14
        )


class TestSolveConsistent:
    def test_identity_model_recovers_linear_theory(self):
        g = oscillator_grid(1.0)
        r = solve_consistent(g, PotentialSpec.harmonic(1.0), DeformationModel.identity(), UNITS)
        assert r.W_params == (0.0,)
        assert r.iterations == 1 and [W for W, _ in r.history[0]] == [0.0]
        assert r.energy == pytest.approx(0.5, rel=1e-4)
        assert r.converged

    @pytest.mark.parametrize("q,boundary", [
        *(pytest.param(q, "dirichlet", id=str(q)) for q in (0.01, 0.1, 1.0, 5.0)),
        *(pytest.param(q, "periodic", id=f"{q}-periodic") for q in (0.01, 1.0, 5.0)),
    ])
    def test_oracle_equivalence_acceptance_points(self, q, boundary):
        beta = 2.0 * q
        ana = harmonic_analytic(beta, 1.0, UNITS)
        g = oscillator_grid(math.sqrt(ana.sigma_sq), boundary=boundary)
        r = solve_consistent(g, PotentialSpec.harmonic(1.0), DeformationModel.gup(beta), UNITS)
        assert r.converged
        # eigen-solve budget: a first model trial from the coarse W = 0 state
        # and secant steps on h(W) = W_model(C F sqrt(1 + W)) - W need 2, 3,
        # 3 and 3 solves at these q on dirichlet grids and 2, 3 and 3 on
        # periodic ones
        assert r.iterations <= 3
        # C F at W = 0 comes from the coarse grid of the first cold solve
        assert r.history[0][0][0] > 0.0
        assert r.W_params[0] == pytest.approx(ana.nu, rel=1e-4)
        _, delta = position_stats(r.psi)
        assert 2 * delta[0] ** 2 == pytest.approx(ana.sigma_sq, rel=1e-4)

    def test_oracle_equivalence_sweep(self):
        # ten log-spaced q values across [0.01, 10]
        for q in np.logspace(-2, 1, 10):
            beta = 2.0 * q
            ana = harmonic_analytic(beta, 1.0, UNITS)
            g = oscillator_grid(math.sqrt(ana.sigma_sq))
            r = solve_consistent(g, PotentialSpec.harmonic(1.0),
                                 DeformationModel.gup(beta), UNITS)
            assert r.converged
            assert r.W_params[0] == pytest.approx(ana.nu, rel=1e-4), f"q={q}"

    def test_reported_residual_matches_state(self):
        beta = 0.6
        ana = harmonic_analytic(beta, 1.0, UNITS)
        g = oscillator_grid(math.sqrt(ana.sigma_sq), points=512)
        r = solve_consistent(g, PotentialSpec.harmonic(1.0), DeformationModel.gup(beta), UNITS)
        W = r.W_params[0]
        c = UNITS.C * fisher_per_dim(r.psi)[0] * math.sqrt(1.0 + W)
        recomputed = abs(stationary._model_trial(c, DeformationModel.gup(beta)) - W)
        assert recomputed == pytest.approx(r.residual, abs=1e-12)
        assert r.residual <= 1e-8 * max(1.0, W)

    def test_energy_monotone_in_beta(self):
        energies = []
        for beta in (0.0, 0.05, 0.2, 0.8, 3.2):
            ana = harmonic_analytic(beta, 1.0, UNITS)
            g = oscillator_grid(math.sqrt(ana.sigma_sq), points=512)
            model = DeformationModel.gup(beta) if beta else DeformationModel.identity()
            r = solve_consistent(g, PotentialSpec.harmonic(1.0), model, UNITS)
            energies.append(r.energy)
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_domain_error_for_box_confinement(self):
        # box ground state has a Fisher floor; large beta excludes the regime
        g = Grid.centered(1.0, 256)
        with pytest.raises(DomainError):
            solve_consistent(g, PotentialSpec.free(), DeformationModel.gup(50.0), UNITS)

    @pytest.mark.parametrize("ratio", [1.5, 1.05, 1.01])
    def test_domain_error_just_past_the_edge(self, ratio):
        # a free box state is the same for every W, so its C F = z_box never
        # falls; with the domain edge at z_box / ratio, each model trial
        # raises sqrt(1 + W) only by about ratio.  Only the fourfold growth
        # of W once secant steps leave the bracket reaches W = 1e15 within the
        # iteration budget
        g = Grid.centered(1.0, 256)
        _, psi = ground_state(build_hamiltonian(g, PotentialSpec.free(), [0.0], UNITS))
        z_box = UNITS.C * fisher_per_dim(psi)[0]
        with pytest.raises(DomainError):
            solve_consistent(g, PotentialSpec.free(), DeformationModel.gup(ratio / (4 * z_box)),
                             UNITS)

    # W of every closure before model trials and coarse cold starts (to 17
    # digits) and its solves then, 115 in all; a quadratic well's C F scales
    # as (1 + W)^-1/2, these wells' only roughly
    ANHARMONIC = {
        ("quartic", 0.1): (0.25818106761495124, 6),
        ("quartic", 1.0): (11.953896043983757, 9),
        ("quartic", 5.0): (1533.7862366675863, 17),
        ("tilted", 0.1): (0.28560499047276594, 6),
        ("tilted", 1.0): (9.354184799469008, 10),
        ("tilted", 5.0): (730.6057722404673, 14),
        ("double-well", 0.1): (0.19210303521948388, 6),
        ("double-well", 1.0): (6.180553788968176, 10),
        ("double-well", 5.0): (1562.7319303783695, 17),
        ("steep", 0.1): (0.024389838041942592, 4),
        ("steep", 1.0): (0.2941723334270943, 6),
        ("steep", 5.0): (6.447428658339356, 10),
    }

    def test_anharmonic_wells(self):
        g = Grid.centered(8.0, 2048)
        x = g.axis(0)
        wells = {"quartic": 0.25 * x**4, "tilted": 0.5 * x**2 + 0.1 * x**4 + 0.5 * x,
                 "double-well": 0.3 * (x**2 - 2) ** 2, "steep": (np.abs(x) / 6) ** 12}
        solves = 0
        for (name, beta), (W_ref, _) in self.ANHARMONIC.items():
            r = solve_consistent(g, PotentialSpec.tabulated(wells[name]),
                                 DeformationModel.gup(beta), UNITS)
            assert r.converged
            assert abs(r.W_params[0] - W_ref) <= 1e-8 * max(1.0, W_ref), (name, beta)
            solves += r.iterations
        assert solves <= sum(n for _, n in self.ANHARMONIC.values())
        # secant steps on h(W) = W_model(C F sqrt(1 + W)) - W take 62
        assert solves <= 62

    def test_convergence_error_on_iteration_budget(self, monkeypatch):
        beta = 2.0
        ana = harmonic_analytic(beta, 1.0, UNITS)
        g = oscillator_grid(math.sqrt(ana.sigma_sq), points=256)
        monkeypatch.setattr(stationary, "_MAX_SOLVES", 2)
        with pytest.raises(ConvergenceError):
            solve_consistent(g, PotentialSpec.harmonic(1.0), DeformationModel.gup(beta), UNITS)

    def test_separable_2d(self):
        beta = 0.2
        ana = harmonic_analytic(beta, 1.0, UNITS)
        g = Grid.centered(8 * math.sqrt(ana.sigma_sq), 256, dims=2)
        r = solve_consistent(g, PotentialSpec.harmonic(1.0), DeformationModel.gup(beta), UNITS)
        assert r.converged
        assert r.W_params[0] == pytest.approx(r.W_params[1], rel=1e-12)
        assert r.W_params[0] == pytest.approx(ana.nu, rel=5e-3)
        assert abs(r.psi.norm() - 1.0) <= 1e-10

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_history_and_eigen_residual(self, boundary):
        beta = 2.0
        ana = harmonic_analytic(beta, 1.0, UNITS)
        g = oscillator_grid(math.sqrt(ana.sigma_sq), points=512, boundary=boundary)
        r = solve_consistent(g, PotentialSpec.harmonic(1.0), DeformationModel.gup(beta), UNITS)
        (history,) = r.history
        assert len(history) == r.iterations
        assert history[-1][0] == r.W_params[0]
        assert history[-1][1] == UNITS.C * fisher_per_dim(r.psi)[0]
        H = build_hamiltonian(g, PotentialSpec.harmonic(1.0), r.W_params, UNITS)
        psi = np.real(r.psi.values)
        recomputed = np.linalg.norm(H.matvec(psi) - r.energy * psi) / np.linalg.norm(psi)
        assert r.eigen_residual == pytest.approx(recomputed, rel=1e-12)
        assert r.eigen_residual <= 1e-9 * r.energy

    # (W, solves) of closures whose coarse W = 0 estimate is poor: on a wide
    # grid, whose coarse spacing h = 6.25 does not resolve the W = 0 state
    # (sigma_0 = 1), and on a ring whose 400 points are not a multiple of the
    # coarse stride 3.  W to 17 digits as an earlier closure found it
    WIDE_AND_RING = {
        ("wide", 0.1): (0.21945576551245347, 4),
        ("wide", 2.0): (16.022847513888163, 4),
        ("ring", 1.0): (4.485690441975976, 3),
    }

    @pytest.mark.parametrize("case,beta", sorted(WIDE_AND_RING))
    def test_wide_grid_and_ring_take_no_more_solves(self, case, beta):
        if case == "wide":
            g = Grid.centered(400.0, 4096)
        else:
            ana = harmonic_analytic(beta, 1.0, UNITS)
            g = oscillator_grid(math.sqrt(ana.sigma_sq), points=400, boundary="periodic")
        r = solve_consistent(g, PotentialSpec.harmonic(1.0), DeformationModel.gup(beta), UNITS)
        W_ref, solves = self.WIDE_AND_RING[(case, beta)]
        assert abs(r.W_params[0] - W_ref) <= 1e-8 * max(1.0, W_ref)
        assert r.iterations <= solves

    # the closure's solves on the CLI's grid: 5, 7, 8 and 36 at these betas.
    # At 1e7 the secant creeps about 1.2x per step from W = 1.07e5 to 4e14
    ROOT_PAST_SOLVES = {1e3: 5, 3e4: 7, 1e6: 8, 1e7: 36}

    @pytest.mark.parametrize("beta", sorted(ROOT_PAST_SOLVES))
    def test_root_past_double_precision_is_not_labelled_physics(self, beta):
        # nu(beta / 2) is finite (3.6e9 at beta = 3e4), and past W ~ 1e8 z(W)
        # rounds to the domain edge, but the closure's residual reads W off
        # C F sqrt(1 + W), which has no such limit: it converges to nu(q)
        # within the grid's own error (9.6e-5 at every q >= 5) and to the
        # minimal length, instead of calling the regime physically excluded
        ana = harmonic_analytic(beta, 1.0, UNITS)
        g = oscillator_grid(math.sqrt(ana.sigma_sq))
        r = solve_consistent(g, PotentialSpec.harmonic(1.0), DeformationModel.gup(beta), UNITS)
        assert r.converged
        assert r.iterations <= self.ROOT_PAST_SOLVES[beta]
        assert abs(r.W_params[0] / ana.nu - 1.0) <= 1.5e-4
        _, delta = position_stats(r.psi)
        assert abs(delta[0] ** 2 / (UNITS.hbar**2 * beta) - 1.0) <= 1e-6

    def test_spike_below_the_coarse_spacing_starts_at_zero(self):
        # at beta = 1e6 the CLI grid's coarse spacing (221 against sigma_0 = 1)
        # puts the W = 0 state on one coarse point, whose F reads ~0 through
        # F's density floor: that estimate is no first trial, W = 0 is
        ana = harmonic_analytic(1e6, 1.0, UNITS)
        g = oscillator_grid(math.sqrt(ana.sigma_sq))
        r = solve_consistent(g, PotentialSpec.harmonic(1.0), DeformationModel.gup(1e6), UNITS)
        assert r.history[0][0][0] == 0.0

    def test_minimal_length_on_the_grid(self):
        # the paper's minimal length is the limit q -> infinity of the
        # harmonic closure: Delta x^2 falls towards hbar^2 beta from above.
        # On the grid it follows the closed-form scan to within the Fisher
        # stencil's own error, 8.6e-8 relative at every q here, so past
        # q ~ 100 the grid values level off 8.6e-8 above the limit
        ratios, closed = [], []
        for q in (10.0, 100.0, 1e3):
            beta = 2.0 * q  # q = hbar^2 beta / (2 sigma_0^2) with sigma_0 = 1
            ana = harmonic_analytic(beta, 1.0, UNITS)
            g = oscillator_grid(math.sqrt(ana.sigma_sq))
            r = solve_consistent(g, PotentialSpec.harmonic(1.0), DeformationModel.gup(beta),
                                 UNITS)
            assert abs(r.W_params[0] / ana.nu - 1.0) <= 1.5e-4, q
            _, delta = position_stats(r.psi)
            ratios.append(delta[0] ** 2 / (UNITS.hbar**2 * beta))
            _, limit = min_position_uncertainty_scan(beta, [q], UNITS)
            closed.append(limit / (UNITS.hbar**2 * beta))
            assert abs(ratios[-1] - closed[-1]) <= 1e-7, q
        assert all(a > b for a, b in zip(closed, closed[1:]))
        assert ratios[0] > ratios[1]
        assert 1.0 <= ratios[-1] <= 1.0 + 1e-6

    def test_free_ring_takes_one_solve(self):
        # the flat free ground state fills the ring, so the coarse open chain,
        # which bends it down to zero at the seam, says nothing about its
        # C F = 0: the closure solves W = 0 on the ring, and that one solve converges
        r = solve_consistent(Grid.centered(8.0, 256, boundary="periodic"), PotentialSpec.free(),
                             DeformationModel.gup(1.0), UNITS)
        assert r.iterations == 1 and r.W_params == (0.0,) and r.converged

    def test_two_solves_converge_at_small_q(self):
        # at small q the first model trial and the fixed-point step after it
        # meet the stopping test
        ana = harmonic_analytic(0.02, 1.0, UNITS)
        g = oscillator_grid(math.sqrt(ana.sigma_sq), points=4096)
        r = solve_consistent(g, PotentialSpec.harmonic(1.0), DeformationModel.gup(0.02), UNITS)
        assert r.iterations == 2

    @pytest.mark.parametrize("points,extent", [((128, 160), (8.0, 8.0)),
                                               ((128, 128), (7.0, 9.0)),
                                               ((48, 40, 40), (8.0, 8.0, 8.0))],
                             ids=["points", "extent", "3d-two-equal-axes"])
    def test_separable_axes_match_their_1d_solves(self, points, extent, monkeypatch):
        beta = 0.4
        model, pot = DeformationModel.gup(beta), PotentialSpec.harmonic(1.0)
        origin = tuple(-e for e in extent)
        spacing = tuple(2 * e / (n - 1) for e, n in zip(extent, points))
        g = Grid(points, spacing, origin)
        solves = []
        ground = stationary.ground_state
        monkeypatch.setattr(stationary, "ground_state",
                            lambda H, start: solves.append(H.grid) or ground(H, start=start))
        r = solve_consistent(g, pot, model, UNITS)
        assert len(solves) == sum(len(h) for h in set(r.history))  # one closure per distinct axis
        energy = 0.0
        for l in range(g.dims):
            g1 = Grid((points[l],), (spacing[l],), (origin[l],))
            r1 = solve_consistent(g1, pot, model, UNITS)
            assert r.W_params[l] == r1.W_params[0]
            assert r.history[l] == r1.history[0]
            energy += r1.energy
        assert r.energy == energy
        assert r.iterations == max(len(h) for h in r.history)

    def test_ground_state_2d_distinct_W_on_equal_axes(self):
        g = Grid.centered(8.0, 128, dims=2)
        pot = PotentialSpec.harmonic(1.0)
        E, psi = ground_state(build_hamiltonian(g, pot, [0.2, 1.5], UNITS))
        g1 = Grid.centered(8.0, 128)
        E0, psi0 = ground_state(build_hamiltonian(g1, pot, [0.2], UNITS))
        E1, psi1 = ground_state(build_hamiltonian(g1, pot, [1.5], UNITS))
        assert E == E0 + E1
        assert np.max(np.abs(psi.values - np.multiply.outer(psi0.values, psi1.values))) <= 1e-14


def _fresh_python(code, *args, cwd=None):
    """Standard output of code run in a fresh interpreter on this source tree,
    in cwd (default: the tree itself)."""
    src = str(Path(gupnlse.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         check=True, cwd=cwd or src, env=dict(os.environ, PYTHONPATH=src))
    return out.stdout


def test_import_leaves_out_optimize_and_arpack():
    # measured on a 2-vCPU x86-64 VM (Python 3.11, scipy 1.17): `import
    # gupnlse.cli` takes 0.12-0.20 s, numpy included; scipy.linalg would add
    # 0.17-0.18 s and 26 MB (the LAPACK extension alone, which the first
    # factorization loads, 3 ms and 2.4 MB), scipy.optimize about 0.3 s and
    # 19 MB, and scipy.integrate, which only ermakov_width loads, about 0.5 s.
    # Nothing loads scipy.linalg or scipy.sparse
    code = ("import sys, gupnlse, gupnlse.cli; print(sorted({'scipy.linalg', 'scipy.optimize', "
            "'scipy.sparse', 'scipy.integrate'} & set(sys.modules)))")
    assert _fresh_python(code).strip() == "[]"


@pytest.mark.parametrize("commands, loaded", [
    # nu-curve, minlength and a periodic evolve factor nothing; a dirichlet
    # evolve factors its Crank-Nicolson matrices
    ([["nu-curve"], ["minlength", "--beta", "1"],
      ["evolve", "--config", "periodic.json"], ["evolve", "--config", "dirichlet.json"]],
     [False, False, False, True]),
    ([["stationary"]], [True]),
    ([["check"]], [True]),
], ids=["no-factorization", "stationary", "check"])
def test_commands_load_scipy_linalg_only_to_factor(commands, loaded, tmp_path):
    # a command that factors a matrix loads scipy's LAPACK extension, and only
    # that: it reaches it through stationary._lapack, never through
    # scipy.linalg, which no command loads
    for boundary in ("periodic", "dirichlet"):
        (tmp_path / f"{boundary}.json").write_text(json.dumps({"boundary": boundary, "steps": 10}))
    code = ("import json, sys\nfrom gupnlse.cli import main\n"
            "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
            "    assert main(argv + ['--output', f'out{i}']) == 0, argv\n"
            "    print('loaded', 'scipy.linalg' in sys.modules, 'scipy.linalg._flapack' in sys.modules)")
    out = _fresh_python(code, json.dumps(commands), cwd=tmp_path)
    assert [line for line in out.splitlines() if line.startswith("loaded ")] == [
        f"loaded False {flapack}" for flapack in loaded]


@pytest.mark.parametrize("scipy_first", [False, True], ids=["loader-first", "scipy-linalg-first"])
def test_lapack_routines_are_scipy_linalgs(scipy_first):
    # the routines _lapack loads are the objects scipy.linalg.lapack exposes,
    # whichever of the two a process loads first: a scipy that moves _flapack
    # fails here instead of changing which code runs
    code = ("import sys\n" + "import scipy.linalg.lapack\n" * scipy_first
            + "from gupnlse.stationary import _lapack\n"
            "own = _lapack()\n"
            "print('scipy.linalg' in sys.modules)\n"
            "import scipy.linalg.lapack as lapack\n"
            "print(all(getattr(own, r) is getattr(lapack, r) for r in "
            "('dstebz', 'dstein', 'dpttrf', 'dpttrs', 'zgttrf', 'zgttrs')))")
    assert _fresh_python(code).split() == [str(scipy_first), "True"]


def test_lapack_missing_raises(monkeypatch):
    # a scipy that does not ship scipy/linalg/_flapack: ImportError naming it
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", lambda *a: None)
    with pytest.raises(ImportError, match="scipy.linalg._flapack"):
        stationary._lapack()


def test_periodic_solve_leaves_out_arpack():
    # a certified periodic solve needs no ARPACK
    code = ("import sys, gupnlse as g; "
            "grid = g.Grid.centered(10.0, 256, boundary='periodic'); "
            "r = g.solve_consistent(grid, g.PotentialSpec.harmonic(1.0), g.DeformationModel.gup(1.0)); "
            "print(r.converged, 'scipy.sparse.linalg' in sys.modules)")
    assert _fresh_python(code).strip() == "True False"
