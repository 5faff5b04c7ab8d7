"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see the log as the criteria execute.
"""

import math

import numpy as np
import pytest

from gupnlse import (
    DeformationModel,
    EvolutionConfig,
    Grid,
    PotentialSpec,
    UnitsConfig,
    WaveField,
    W_eval,
    build_hamiltonian,
    check_cramer_rao,
    check_fisher_bound,
    check_gup_form,
    check_modified_hj_residual,
    check_sharper_hur,
    density,
    evolve,
    fisher_information,
    gaussian_state,
    ground_state,
    harmonic_analytic,
    integrate,
    min_position_uncertainty_scan,
    normalize,
    nu_of_q,
    plane_wave,
    position_stats,
    rescale_density,
    solve_consistent,
    w_inverse,
)

UNITS = UnitsConfig()
IDENT = DeformationModel.identity()


def report(num, desc, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}  {desc}  [{detail}]")
    assert passed, f"criterion {num}: {desc} ({detail})"


class TestAcceptance:
    def test_01_nu_closed_form(self):
        exact = 7.5 + 6 * math.sqrt(2)
        err = abs(nu_of_q(1.0) - exact)
        r10 = nu_of_q(10.0) / 1600.0
        ok = err <= 1e-12 and 0.9990 <= r10 <= 0.9997
        report(1, "nu(q) closed form at q=1 and asymptote at q=10", ok,
               f"|nu(1)-(7.5+6*sqrt2)|={err:.2e}, nu(10)/1600={r10:.6f}")

    def test_02_minimal_length_limit(self):
        beta = 1.0
        q = np.logspace(-2, 2, 200)
        vals, inf_est = min_position_uncertainty_scan(beta, q, UNITS)
        limit_q100 = math.sqrt(1 + nu_of_q(100.0)) / 100.0
        rel4 = abs(limit_q100 - 4.0) / 4.0
        rel_min = abs(inf_est - UNITS.hbar**2 * beta) / (UNITS.hbar**2 * beta)
        mono = bool(np.all(np.diff(vals) < 0))
        ok = rel4 <= 2e-4 and rel_min <= 2e-4 and mono
        report(2, "minimal length: q^-1 sqrt(1+nu) -> 4 and monotone scan", ok,
               f"rel dev at q=100: {rel4:.2e}, min(dx)^2 vs hbar^2 beta: {rel_min:.2e}, "
               f"monotone={mono}")

    def test_03_self_consistency_oracle(self):
        worst_w = worst_s = 0.0
        for q in (0.01, 0.1, 1.0, 5.0):
            beta = 2.0 * q
            ana = harmonic_analytic(beta, 1.0, UNITS)
            grid = Grid.centered(10.0 * math.sqrt(ana.sigma_sq), 1024)
            res = solve_consistent(grid, PotentialSpec.harmonic(1.0),
                                   DeformationModel.gup(beta), UNITS)
            _, delta = position_stats(res.psi)
            worst_w = max(worst_w, abs(res.W_params[0] - ana.nu) / ana.nu)
            worst_s = max(worst_s, abs(2 * delta[0] ** 2 - ana.sigma_sq) / ana.sigma_sq)
        ok = worst_w <= 1e-4 and worst_s <= 1e-4
        report(3, "solve_consistent matches nu(q) and sigma^2(q) to 1e-4", ok,
               f"worst W1 rel: {worst_w:.2e}, worst sigma^2 rel: {worst_s:.2e}")

    def test_04_linear_regression(self):
        grid = Grid.centered(10.0, 1024)
        res = solve_consistent(grid, PotentialSpec.harmonic(1.0), IDENT, UNITS)
        rel = abs(res.energy - 0.5) / 0.5
        report(4, "identity model harmonic ground energy = hbar omega / 2", rel <= 1e-4,
               f"E={res.energy:.8f}, rel err={rel:.2e}")

    def test_05_plane_wave_transparency(self):
        L = 16.0
        n = 128
        grid = Grid.centered(L / 2, n, boundary="periodic")
        k = 2 * math.pi * 5 / L
        pw = plane_wave(grid, k, UNITS)
        dt, steps = 0.01, 1000
        cfg = EvolutionConfig(dt=dt, steps=steps, model=DeformationModel.gup(1.0),
                              potential=PotentialSpec.free(),
                              snapshot_every=1)
        traj = evolve(pw, cfg)
        assert traj.failure is None
        amp_dev = max(
            float(np.max(np.abs(np.abs(s.values) - 1 / math.sqrt(L))))
            for _, s in traj.snapshots
        )
        expected = -UNITS.hbar * k**2 * dt / (2 * UNITS.mass)
        phase_dev = 0.0
        prev = pw.values
        for _, snap in traj.snapshots[1:]:
            inc = np.angle(snap.values / prev)
            phase_dev = max(phase_dev, float(np.max(np.abs(inc - expected))))
            prev = snap.values
        ok = amp_dev <= 1e-10 and phase_dev <= 1e-8
        report(5, "plane wave: |psi| constant and dispersion unmodified over 1000 steps", ok,
               f"max |psi| dev={amp_dev:.2e}, max per-step phase dev={phase_dev:.2e}")

    def test_06_norm_conservation(self):
        grid = Grid.centered(12.0, 256, boundary="periodic")
        psi0 = gaussian_state(grid, 0.85, units=UNITS)
        cfg = EvolutionConfig(dt=2e-3, steps=1000, model=DeformationModel.gup(0.2),
                              potential=PotentialSpec.harmonic(1.0))
        traj = evolve(psi0, cfg)
        assert traj.failure is None
        drift = float(np.max(np.abs(traj.norms - 1.0)))
        report(6, "norm drift <= 1e-8 over 1000 deformed steps", drift <= 1e-8,
               f"max drift={drift:.2e}")

    def test_07_separability(self):
        n, half = 128, 8.0
        g1 = Grid.centered(half, n, boundary="periodic")
        p1 = gaussian_state(g1, 0.9, units=UNITS)
        p2 = gaussian_state(g1, 1.1, units=UNITS)
        g2 = Grid.centered(half, n, dims=2, boundary="periodic")
        prod = WaveField(g2, np.multiply.outer(p1.values, p2.values), UNITS)
        cfg = EvolutionConfig(dt=4e-3, steps=100, model=DeformationModel.gup(0.15),
                              potential=PotentialSpec.harmonic(1.0))
        t2 = evolve(prod, cfg)
        ta = evolve(p1, cfg)
        tb = evolve(p2, cfg)
        assert t2.failure is None and ta.failure is None and tb.failure is None
        tensor = np.multiply.outer(ta.psi_final.values, tb.psi_final.values)
        dev = float(np.max(np.abs(t2.psi_final.values - tensor)))
        report(7, "2D product evolution equals tensor of 1D evolutions (128^2, 100 steps)",
               dev <= 1e-6, f"max pointwise dev={dev:.2e}")

    def test_08_homogeneity_dichotomy(self):
        # frozen-W eigen-equation: scaling invariance
        grid = Grid.centered(11.0, 512)
        model = DeformationModel.gup(0.3)
        res = solve_consistent(grid, PotentialSpec.harmonic(1.0), model, UNITS)
        H = build_hamiltonian(grid, PotentialSpec.harmonic(1.0), res.W_params, UNITS)
        base = np.real(res.psi.values)
        r0 = H.matvec(base) - res.energy * base
        worst = 0.0
        op_scale = math.sqrt(float(np.sum(H.matvec(base) ** 2)) * grid.cell_volume())
        for A in (2.0**10, 2.0**-10, 1e3, 1e-3):
            rA = H.matvec(A * base) - res.energy * (A * base)
            diff = np.linalg.norm(rA / A - r0) * math.sqrt(grid.cell_volume())
            worst = max(worst, diff / op_scale)
        frozen_ok = worst <= 1e-12

        # full dynamics: scaled input does not give scaled output
        gp = Grid.centered(12.0, 256, boundary="periodic")
        psi0 = gaussian_state(gp, 0.85, units=UNITS)
        A = 0.5
        cfg = EvolutionConfig(dt=2 * math.pi / 4000, steps=4000,
                              model=DeformationModel.gup(0.2),
                              potential=PotentialSpec.harmonic(1.0))
        t_scaled = evolve(psi0.with_values(A * psi0.values), cfg)
        t_base = evolve(psi0, cfg)
        assert t_scaled.failure is None and t_base.failure is None
        ref = A * t_base.psi_final.values
        dev = (math.sqrt(float(np.sum(np.abs(t_scaled.psi_final.values - ref) ** 2)))
               / math.sqrt(float(np.sum(np.abs(ref) ** 2))))
        dynamics_ok = dev > 1e-3
        report(8, "frozen-W equation scale-invariant; true dynamics breaks scaling",
               frozen_ok and dynamics_ok,
               f"frozen residual mismatch={worst:.2e}, dynamic rel dev={dev:.3e}")

    def test_09_inequality_suite(self):
        failures = []
        for q in (0.01, 0.1, 1.0, 5.0):
            beta = 2.0 * q
            model = DeformationModel.gup(beta)
            ana = harmonic_analytic(beta, 1.0, UNITS)
            grid = Grid.centered(10.0 * math.sqrt(ana.sigma_sq), 1024)
            res = solve_consistent(grid, PotentialSpec.harmonic(1.0), model, UNITS)
            reports = (check_sharper_hur(res.psi, model)
                       + check_gup_form(res.psi, model)
                       + check_cramer_rao(res.psi)
                       + [check_fisher_bound(res.psi, model)])
            failures += [r for r in reports if not r.passed]
        # identity model saturates the undeformed relation
        grid = Grid.centered(10.0, 1024)
        res = solve_consistent(grid, PotentialSpec.harmonic(1.0), IDENT, UNITS)
        reports = (check_sharper_hur(res.psi, IDENT)
                   + check_gup_form(res.psi, IDENT)
                   + check_cramer_rao(res.psi)
                   + [check_fisher_bound(res.psi, IDENT)])
        failures += [r for r in reports if not r.passed]
        report(9, "uncertainty, Cramer-Rao and Fisher-cap checks: zero failures",
               not failures, f"{len(failures)} failures")

    def test_10_W_function_consistency(self):
        worst = 0.0
        for beta in (0.01, 1.0):
            model = DeformationModel.gup(beta)
            z_hi = 0.9 / (4 * beta)
            for z in np.logspace(math.log10(z_hi) - 3, math.log10(z_hi), 100):
                h = 1e-4 * z
                g = lambda t: w_inverse(math.sqrt(t), model) ** 2
                fd = (g(z + h) - g(z - h)) / (2 * h) - 1.0
                closed = W_eval(z, model)
                worst = max(worst, abs(fd - closed) / max(abs(closed), 1e-300))
        small_ok = True
        for beta in (0.01, 1.0):
            model = DeformationModel.gup(beta)
            for bz in np.logspace(-7, -3, 40):
                z = bz / beta
                if abs(W_eval(z, model) / (4 * beta * z) - 1.0) > 5 * beta * z:
                    small_ok = False
        ok = worst <= 1e-6 and small_ok
        report(10, "closed-form W vs definitional derivative and small-z law", ok,
               f"worst FD rel dev={worst:.2e}, small-z law holds={small_ok}")

    def test_11_fisher_scaling(self):
        grid = Grid.centered(14.0, 6144)
        x = grid.axis(0)
        gauss = density(gaussian_state(grid, 1.5, units=UNITS))
        mix = 0.6 * np.exp(-((x - 1.1) ** 2) / 1.7) + 0.4 * np.exp(-((x + 2.0) ** 2) / 0.9)
        mix /= integrate(mix, grid)
        worst = 0.0
        for rho in (gauss, mix):
            F = fisher_information(rho, 0, grid)
            for kappa in (0.5, 1.5, 2.0):
                Fk = fisher_information(rescale_density(rho, kappa, grid), 0, grid)
                worst = max(worst, abs(Fk - kappa**2 * F) / (kappa**2 * F))
        report(11, "F[rho_kappa] = kappa^2 F[rho] for kappa in {0.5, 1.5, 2}",
               worst <= 1e-4, f"worst rel dev={worst:.2e}")

    def test_12_madelung_residual_convergence(self):
        model = DeformationModel.gup(0.2)
        pot = PotentialSpec.harmonic(1.0)
        trajs = []
        for fac in (1, 2):
            g = Grid.centered(12.0, 256 * fac, boundary="periodic")
            psi0 = gaussian_state(g, 0.85, units=UNITS)
            cfg = EvolutionConfig(dt=0.25 / (128 * fac), steps=128 * fac, model=model,
                                  potential=pot, snapshot_every=1)
            traj = evolve(psi0, cfg)
            assert traj.failure is None
            trajs.append(traj)
        rep = check_modified_hj_residual(trajs[0], trajs[1])
        report(12, "continuity and modified-HJ residuals drop by 4 +- 0.5 under refinement",
               rep.passed, rep.details)
