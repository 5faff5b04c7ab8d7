"""Effective-mass eigenproblem, consistency closure and the closed-form oracles."""

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
from scipy.optimize import minimize_scalar

import gupnlse
from gupnlse import (
    ConvergenceError,
    DeformationModel,
    DomainError,
    Grid,
    PotentialSpec,
    UnitsConfig,
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
        rng = np.random.default_rng(7)
        for boundary in ("dirichlet", "periodic"):
            g = Grid.centered(6.0, 96, boundary=boundary)
            H = build_hamiltonian(g, PotentialSpec.harmonic(1.3), [0.2], UNITS)
            for _ in range(5):
                phi = rng.normal(size=96)
                chi = rng.normal(size=96)
                lhs = inner_product(phi, H.matvec(chi), g)
                rhs = inner_product(H.matvec(phi), chi, g)
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
            mp.setattr(stationary, "eigh_tridiagonal",
                       lambda *a, **k: cold_solves.append(a) or eigh_tridiagonal(*a, **k))
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
        # at q = 5 on 4096 points, Brent's last steps change W by ~1e-12
        # relative; a warm solve that returned its start unchanged there would
        # freeze the Fisher information and stall the closure
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

    def test_no_certificate_falls_back_to_arpack(self, monkeypatch):
        import scipy.sparse.linalg

        calls = []
        eigsh = scipy.sparse.linalg.eigsh
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                            lambda *a, **k: calls.append(a) or eigsh(*a, **k))
        g = Grid.centered(12.0, 256, boundary="periodic")
        H = build_hamiltonian(g, PotentialSpec.harmonic(1.0), [0.3], UNITS)
        E_cert, psi_cert = ground_state(H)
        assert not calls
        monkeypatch.setattr(stationary, "_SWEEPS", 0)  # no sweep can certify
        E, psi = ground_state(H)  # the residual gate passes the ARPACK pair
        assert len(calls) == 1
        assert E == pytest.approx(E_cert, rel=1e-11)
        assert np.max(np.abs(psi.values - psi_cert.values)) <= 1e-9


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
        # eigen-solve budget: bracket + Brent needs 5, 6, 12 and 25 solves at
        # these q; the damped fixed-point loop it replaced needed 78, 68, 26
        # and 55 and met the accuracy asserts all the same
        assert r.iterations <= 30
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
        z = UNITS.C * fisher_per_dim(r.psi)
        recomputed = abs(float(W_eval(z[0], DeformationModel.gup(beta))) - r.W_params[0])
        assert recomputed == pytest.approx(r.residual, abs=1e-12)
        assert r.residual <= 1e-8 * max(1.0, r.W_params[0])

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

    def test_convergence_error_on_iteration_budget(self):
        beta = 2.0
        ana = harmonic_analytic(beta, 1.0, UNITS)
        g = oscillator_grid(math.sqrt(ana.sigma_sq), points=256)
        with pytest.raises(ConvergenceError):
            solve_consistent(g, PotentialSpec.harmonic(1.0), DeformationModel.gup(beta),
                             UNITS, max_iter=2)

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
        assert history[0][0] == 0.0 and history[-1][0] == r.W_params[0]
        assert history[-1][1] == UNITS.C * fisher_per_dim(r.psi)[0]
        H = build_hamiltonian(g, PotentialSpec.harmonic(1.0), r.W_params, UNITS)
        psi = np.real(r.psi.values)
        recomputed = np.linalg.norm(H.matvec(psi) - r.energy * psi) / np.linalg.norm(psi)
        assert r.eigen_residual == pytest.approx(recomputed, rel=1e-12)
        assert r.eigen_residual <= 1e-9 * r.energy

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


def test_import_leaves_out_optimize_and_arpack():
    # measured on a 2-vCPU x86-64 VM (Python 3.11, scipy 1.17): scipy.optimize
    # adds about 0.3 s and 19 MB to `import gupnlse`, scipy.sparse.linalg about
    # 0.04 s and 2.3 MB; only a periodic eigen-solve that cannot certify its
    # result loads the latter, for its ARPACK fallback
    code = ("import sys, gupnlse, gupnlse.cli; "
            "print(sorted({'scipy.optimize', 'scipy.sparse.linalg'} & set(sys.modules)))")
    src = str(Path(gupnlse.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_periodic_solve_leaves_out_arpack():
    # a certified periodic solve needs no ARPACK
    code = ("import sys, gupnlse as g; "
            "grid = g.Grid.centered(10.0, 256, boundary='periodic'); "
            "r = g.solve_consistent(grid, g.PotentialSpec.harmonic(1.0), g.DeformationModel.gup(1.0)); "
            "print(r.converged, 'scipy.sparse.linalg' in sys.modules)")
    src = str(Path(gupnlse.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "True False"
