"""Inequality checks, Madelung decomposition and residuals, and the full suite."""

import math

import numpy as np
import pytest

from gupnlse import checks, evolution
from gupnlse import (
    DeformationModel,
    EvolutionConfig,
    Grid,
    NodeError,
    PotentialSpec,
    SuiteConfig,
    UnitsConfig,
    ValidationError,
    WaveField,
    check_cramer_rao,
    check_fisher_bound,
    check_gup_form,
    check_homogeneity_stationary,
    check_modified_hj_residual,
    check_scaling_law,
    check_separability,
    check_sharper_hur,
    density,
    evolve,
    fisher_per_dim,
    fluctuation_momentum_stats,
    galilean_boost,
    gaussian_state,
    harmonic_analytic,
    integrate,
    madelung_decompose,
    madelung_residuals,
    momentum_stats,
    normalize,
    plane_wave,
    run_all,
    solve_consistent,
)
from gupnlse.fields import SIGNIFICANT_FRAC

UNITS = UnitsConfig()
IDENT = DeformationModel.identity()


def consistent_state(beta, points=1024, n_sigma=10.0):
    ana = harmonic_analytic(beta, 1.0, UNITS)
    g = Grid.centered(n_sigma * math.sqrt(ana.sigma_sq), points)
    model = DeformationModel.gup(beta) if beta else IDENT
    return solve_consistent(g, PotentialSpec.harmonic(1.0), model, UNITS), model


class TestFluctuationMomentum:
    def test_matches_operator_for_identity_model(self):
        g = Grid.centered(12.0, 512, boundary="periodic")
        psi = gaussian_state(g, 1.1, phase_velocity=0.8)
        dp_w = fluctuation_momentum_stats(psi, IDENT)
        _, dp_op = momentum_stats(psi)
        # central-difference Fisher route vs spectral operator route: O(dx^2) apart
        assert dp_w[0] == pytest.approx(dp_op[0], rel=1e-5)

    def test_real_state_reduces_to_deformed_fisher(self):
        from gupnlse import fisher_per_dim, w_inverse

        res, model = consistent_state(0.4)
        dp_w = fluctuation_momentum_stats(res.psi, model)
        F = fisher_per_dim(res.psi)[0]
        assert dp_w[0] == pytest.approx(w_inverse(math.sqrt(UNITS.C * F), model), rel=1e-12)


class TestInequalities:
    def test_linear_gaussian_saturates_hur(self):
        res, model = consistent_state(0.0)
        rep = check_sharper_hur(res.psi, model)[0]
        assert rep.passed
        assert rep.measured == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("beta", [2e-2, 0.2, 2.0, 10.0])
    def test_consistent_states_pass_all(self, beta):
        res, model = consistent_state(beta)
        for rep in (check_sharper_hur(res.psi, model)
                    + check_gup_form(res.psi, model)
                    + check_cramer_rao(res.psi)):
            assert rep.passed, rep
        assert check_fisher_bound(res.psi, model).passed

    def test_gup_and_w_forms_agree(self):
        # equivalent inequalities: same verdict on saturating and non-saturating states
        g = Grid.centered(14.0, 768)
        model = DeformationModel.gup(0.15)
        for psi in (
            gaussian_state(g, 1.3),
            normalize(WaveField(g, (np.exp(-((g.axis(0) - 1.5) ** 2) / 2)
                                    + np.exp(-((g.axis(0) + 1.5) ** 2) / 1.1)).astype(complex))),
        ):
            a = check_sharper_hur(psi, model)[0]
            b = check_gup_form(psi, model)[0]
            assert a.passed == b.passed

    def test_cramer_rao_double_hump_strict(self):
        g = Grid.centered(16.0, 1024)
        x = g.axis(0)
        vals = np.exp(-((x - 2.5) ** 2)) + np.exp(-((x + 2.5) ** 2))
        psi = normalize(WaveField(g, vals.astype(complex)))
        rep = check_cramer_rao(psi)[0]
        assert rep.passed
        assert rep.measured > 1.5  # separated humps inflate the variance

    def test_fisher_bound_detects_violation(self):
        beta = 0.5
        sigma = math.sqrt(beta)  # F = 2/sigma^2 = 2/beta > 1/beta
        g = Grid.centered(8 * sigma, 512)
        psi = gaussian_state(g, sigma)
        rep = check_fisher_bound(psi, DeformationModel.gup(beta))
        assert not rep.passed
        assert rep.measured == pytest.approx(2.0, rel=1e-5)

    def test_fisher_bound_trivial_without_deformation(self):
        g = Grid.centered(8.0, 256)
        psi = gaussian_state(g, 1.0)
        rep = check_fisher_bound(psi, IDENT)
        assert rep.passed and rep.measured == 0.0


class TestScalingLaw:
    def test_kappa_one_exact(self):
        g = Grid.centered(10.0, 512)
        rho = density(gaussian_state(g, 1.2))
        rep = check_scaling_law(rho, 1.0, g)
        assert rep.passed and rep.measured <= 1e-12

    def test_gaussian_doubling(self):
        g = Grid.centered(14.0, 4096)
        rho = density(gaussian_state(g, 1.5))
        rep = check_scaling_law(rho, 2.0, g)
        assert rep.passed

    def test_random_mixture(self):
        g = Grid.centered(14.0, 6144)
        x = g.axis(0)
        rng = np.random.default_rng(5)
        rho = np.zeros_like(x)
        for _ in range(4):
            c = rng.uniform(-2, 2)
            s = rng.uniform(0.7, 1.6)
            rho += rng.uniform(0.2, 1.0) * np.exp(-((x - c) ** 2) / s**2)
        rho /= integrate(rho, g)
        rep = check_scaling_law(rho, 1.5, g)
        assert rep.passed, rep


class TestMadelung:
    def test_real_positive_state_flat_phase(self):
        g = Grid.centered(10.0, 512)
        psi = gaussian_state(g, 1.0)
        m = madelung_decompose(psi)
        assert np.max(np.abs(m.S)) <= 1e-12

    def test_plane_wave_linear_phase(self):
        L = 16.0
        g = Grid.centered(L / 2, 128, boundary="periodic")
        k = 2 * math.pi * 3 / L
        m = madelung_decompose(plane_wave(g, k))
        slope = np.gradient(m.S, g.spacing[0])
        assert np.max(np.abs(slope - k)) <= 1e-8  # hbar = 1

    def test_boosted_gaussian_phase(self):
        g = Grid.centered(12.0, 512)
        psi = galilean_boost(gaussian_state(g, 1.0), 0.7)
        m = madelung_decompose(psi)
        x = g.axis(0)
        sig = np.abs(psi.values) >= 1e-6 * np.max(np.abs(psi.values))
        resid = m.S[sig] - 0.7 * x[sig]
        assert np.max(resid) - np.min(resid) <= 1e-9

    def test_reconstruction_pointwise(self):
        g = Grid.centered(12.0, 512, boundary="periodic")
        psi = galilean_boost(gaussian_state(g, 1.1, center=0.5), 1.2)
        m = madelung_decompose(psi)
        rebuilt = np.sqrt(m.P) * np.exp(1j * m.S / UNITS.hbar)
        assert np.max(np.abs(rebuilt - psi.values)) <= 1e-10

    def test_node_error_on_excited_state(self):
        g = Grid.centered(12.0, 512)
        x = g.axis(0)
        vals = x * np.exp(-(x**2) / 2)  # sign change at the origin
        psi = normalize(WaveField(g, vals.astype(complex)))
        with pytest.raises(NodeError, match="phase jump"):
            madelung_decompose(psi)
        # two packets whose overlap falls below the significance floor
        g = Grid.centered(20.0, 512)
        x = g.axis(0)
        vals = np.exp(-((x - 10) ** 2) / 2) + np.exp(-((x + 10) ** 2) / 2)
        with pytest.raises(NodeError, match="dips below"):
            madelung_decompose(normalize(WaveField(g, vals.astype(complex))))
        # a nodal line in 2D
        g = Grid.centered(10.0, 64, dims=2)
        X, Y = g.sparse_axes
        vals = X * np.exp(-(X**2 + Y**2) / 2)
        with pytest.raises(NodeError, match="phase jump"):
            madelung_decompose(normalize(WaveField(g, vals.astype(complex))))

    @pytest.mark.parametrize("dims, shift", [(2, (32, 0)), (2, (0, 32)), (2, (32, 32)),
                                             (2, (27, -25)), (1, (32,))],
                             ids=["seam-0", "seam-1", "corner", "off-centre", "1d-seam"])
    def test_ring_roll_invariance(self, dims, shift):
        # where a packet sits on a ring does not change its phase: the seam's
        # end points are neighbours, a support may wrap round the seam, and
        # each unwrap starts in the tail
        g = Grid.centered(8.0, 64, dims=dims, boundary="periodic")
        psi = gaussian_state(g, 1.0)
        if dims == 2:  # one and two windings round the ring
            psi = galilean_boost(psi, (2 * math.pi / 16, -4 * math.pi / 16))
        axes = tuple(range(dims))
        rolled = psi.with_values(np.roll(psi.values, shift, axis=axes))
        sig = np.abs(rolled.values) >= SIGNIFICANT_FRAC * np.abs(rolled.values).max()
        S, S_rolled = madelung_decompose(psi).S, madelung_decompose(rolled).S
        assert np.max(np.abs(S_rolled - np.roll(S, shift, axis=axes))[sig]) <= 1e-12
        # a sign flip through the peak is a node, at the seam or off it
        for X in g.sparse_axes:
            flipped = np.roll(np.where(X >= 0, -psi.values, psi.values), shift, axis=axes)
            with pytest.raises(NodeError, match="phase jump"):
                madelung_decompose(psi.with_values(flipped))

    def test_2d_unwrap(self):
        g = Grid.centered(10.0, 64, dims=2)
        psi = galilean_boost(gaussian_state(g, 1.2), (0.5, -0.3))
        m = madelung_decompose(psi)
        rebuilt = np.sqrt(m.P) * np.exp(1j * m.S)
        assert np.max(np.abs(rebuilt - psi.values)) <= 1e-10


def _hj_trajectories(beta, n, steps, T=0.25, sigma=0.85, half=12.0, units=UNITS):
    model = DeformationModel.gup(beta) if beta else IDENT
    out = []
    for fac in (1, 2):
        g = Grid.centered(half, n * fac, boundary="periodic")
        psi0 = gaussian_state(g, sigma, units=units)
        cfg = EvolutionConfig(dt=T / (steps * fac), steps=steps * fac, model=model,
                              potential=PotentialSpec.harmonic(1.0),
                              snapshot_every=1)
        traj = evolve(psi0, cfg)
        assert traj.failure is None
        out.append(traj)
    return out


class TestMadelungResiduals:
    @pytest.mark.parametrize("hbar, mass", [(1.0, 1.0), (0.7, 1.3)])
    def test_gup_second_order_convergence(self, hbar, mass):
        # the residuals are taken in the units the trajectory carries
        units = UnitsConfig(hbar=hbar, mass=mass)
        coarse, fine = _hj_trajectories(0.2, 256, 128, units=units)
        rep = check_modified_hj_residual(coarse, fine)
        assert rep.passed, rep

    def test_identity_second_order_convergence(self):
        coarse, fine = _hj_trajectories(0.0, 256, 128)
        rep = check_modified_hj_residual(coarse, fine)
        assert rep.passed, rep

    def test_stationary_state_continuity_floor(self):
        beta = 0.4
        res, model = consistent_state(beta, points=384, n_sigma=8.0)
        cfg = EvolutionConfig(dt=5e-4, steps=40, model=model,
                              potential=PotentialSpec.harmonic(1.0),
                              snapshot_every=1)
        traj = evolve(res.psi, cfg)
        assert traj.failure is None
        cont, hj, _ = madelung_residuals(traj)
        # a moving packet at the same resolution for comparison
        moving = evolve(galilean_boost(res.psi, 0.5), cfg)
        cont_mv, _, _ = madelung_residuals(moving)
        assert cont <= 1e-5
        assert cont_mv > 100 * cont

    @pytest.mark.parametrize("windings", [1, 3])
    def test_ring_plane_wave(self, windings):
        # exact free solutions whose phase winds round the ring: the phase
        # derivatives come from psi, with no unwrapping seam
        g = Grid.centered(8.0, 128, boundary="periodic")
        pw = plane_wave(g, 2 * math.pi * windings / 16.0)
        traj = evolve(pw, EvolutionConfig(dt=1e-3, steps=4, model=DeformationModel.gup(0.2),
                                          potential=PotentialSpec.free(), snapshot_every=1))
        assert traj.failure is None
        cont, hj, _ = madelung_residuals(traj)
        assert cont <= 1e-10
        assert hj <= 0.05

    def test_window_refused_across_the_seam(self):
        # a coordinate box round a support that wraps round the seam would
        # span the empty side of the ring: the residuals name the seam instead
        g = Grid.centered(8.0, 256, boundary="periodic")
        psi = gaussian_state(g, 0.8, phase_velocity=4 * math.pi / 16)
        cfg = EvolutionConfig(dt=1e-3, steps=20, model=DeformationModel.gup(0.2),
                              potential=PotentialSpec.free(), snapshot_every=1)
        centred = evolve(psi, cfg)
        across = evolve(psi.with_values(np.roll(psi.values, 128)), cfg)
        assert centred.failure is None and across.failure is None
        cont, hj, window = madelung_residuals(centred)
        assert math.isfinite(cont) and math.isfinite(hj) and window[0][1] - window[0][0] < 8
        with pytest.raises(ValidationError, match="seam"):
            madelung_residuals(across)

    def test_node_error_kept(self):
        g = Grid.centered(12.0, 512)
        x = g.axis(0)
        psi = normalize(WaveField(g, (x * np.exp(-(x**2) / 2)).astype(complex)))
        traj = evolve(psi, EvolutionConfig(dt=1e-3, steps=2, model=IDENT,
                                           potential=PotentialSpec.harmonic(1.0),
                                           snapshot_every=1))
        with pytest.raises(NodeError):
            madelung_residuals(traj)


class TestSeparabilityCheck:
    def test_plane_wave_factors(self):
        L = 16.0
        g1 = Grid.centered(L / 2, 64, boundary="periodic")
        pa = plane_wave(g1, 2 * math.pi * 2 / L)
        pb = plane_wave(g1, -2 * math.pi * 3 / L)
        cfg = EvolutionConfig(dt=5e-3, steps=60, model=DeformationModel.gup(0.5),
                              potential=PotentialSpec.free())
        rep = check_separability(pa, pb, cfg)
        assert rep.passed
        assert rep.measured <= 1e-10

    def test_gaussian_factors_gup(self):
        g1 = Grid.centered(8.0, 64, boundary="periodic")
        pa = gaussian_state(g1, 0.9)
        pb = gaussian_state(g1, 1.1)
        cfg = EvolutionConfig(dt=4e-3, steps=100, model=DeformationModel.gup(0.15),
                              potential=PotentialSpec.harmonic(1.0))
        rep = check_separability(pa, pb, cfg)
        assert rep.passed, rep

    def test_identity_model_tensor_exact(self):
        g1 = Grid.centered(8.0, 64, boundary="periodic")
        pa = gaussian_state(g1, 0.9)
        pb = gaussian_state(g1, 1.25)
        cfg = EvolutionConfig(dt=4e-3, steps=100, model=IDENT,
                              potential=PotentialSpec.harmonic(1.0))
        rep = check_separability(pa, pb, cfg)
        assert rep.measured <= 1e-10
        # factors of different boundaries or different units have no product
        dirichlet = gaussian_state(Grid.centered(8.0, 64), 0.9)
        with pytest.raises(ValueError):
            check_separability(dirichlet, pb, cfg)
        other_units = gaussian_state(g1, 1.25, units=UnitsConfig(hbar=0.7, mass=1.3))
        with pytest.raises(ValueError):
            check_separability(pa, other_units, cfg)


class TestHomogeneityCheck:
    @pytest.mark.parametrize("A", [1.0, 2.0**10, 2.0**-10, 1e3, 1e-3])
    def test_frozen_W_scaling_invariance(self, A):
        g = Grid.centered(11.0, 512)
        rep = check_homogeneity_stationary(PotentialSpec.harmonic(1.0),
                                           DeformationModel.gup(0.3), A, g, UNITS)
        assert rep.passed, rep

    def test_power_of_two_is_exact(self):
        g = Grid.centered(11.0, 512)
        rep = check_homogeneity_stationary(PotentialSpec.harmonic(1.0),
                                           DeformationModel.gup(0.3), 2.0**6, g, UNITS)
        assert rep.measured == 0.0


class TestSuite:
    def test_full_matrix_passes(self):
        reports = run_all(SuiteConfig(betas=(0.0, 1e-4, 1e-2, 1.0),
                                      grid_points=512, evolve_steps=200))
        failures = [r for r in reports if not r.passed]
        assert not failures, failures
        assert len(reports) >= 40

    def test_plane_wave_check_sees_the_dispersion_relation(self, monkeypatch):
        # a kinetic step that turns the phase 1% too fast leaves |psi| flat;
        # the plane-wave check compares psi with psi_0 exp(-i hbar k^2 t / 2m)
        kinetic = evolution._KineticPropagator
        monkeypatch.setattr(evolution, "_KineticPropagator",
                            lambda grid, dt, units: kinetic(grid, dt * 1.01, units))
        reports = run_all(SuiteConfig(betas=(1.0,), grid_points=256, evolve_steps=200))
        (rep,) = [r for r in reports if r.name == "plane_wave_transparency[beta=1]"]
        assert not rep.passed and rep.measured > 1e-4

    def test_one_closure_per_beta(self, monkeypatch):
        # the homogeneity check reuses the closure the suite solved for the
        # inequality checks, and reports what the public check reports
        calls = []
        solve = checks.solve_consistent
        monkeypatch.setattr(checks, "solve_consistent",
                            lambda *a: calls.append(a) or solve(*a))
        config = SuiteConfig(betas=(0.0, 1e-2), grid_points=256, evolve_steps=20)
        reports = run_all(config)
        assert len(calls) == len(config.betas)
        for beta, (grid, potential, model, units) in zip(config.betas, calls):
            name = f"homogeneity_stationary(A=1024)[beta={beta:g}]"
            (rep,) = [r for r in reports if r.name == name]
            public = check_homogeneity_stationary(potential, model, 2.0**10, grid, units)
            assert (rep.passed, rep.measured, rep.details) == (public.passed, public.measured,
                                                               public.details)

    def test_shared_moments_report_what_the_public_checks_report(self, monkeypatch):
        # run_all computes each harmonic state's moments once and hands them
        # to the builders behind the public inequality checks, and reads the
        # plane wave's F off its trajectory's first row: the same reports
        results = []
        solve = checks.solve_consistent
        monkeypatch.setattr(checks, "solve_consistent",
                            lambda *a: results.append(solve(*a)) or results[-1])
        config = SuiteConfig()
        by_name = {r.name: r.to_dict() for r in run_all(config)}
        assert len(results) == len(config.betas) == 4
        pw = plane_wave(Grid.centered(8.0, 128, boundary="periodic"), 2 * math.pi * 3 / 16.0)
        for beta, result in zip(config.betas, results):
            psi, model, tag = result.psi, DeformationModel(beta), f"[beta={beta:g}]"
            public = [*check_sharper_hur(psi, model), *check_gup_form(psi, model),
                      *check_cramer_rao(psi), check_fisher_bound(psi, model)]
            assert len(public) == 4
            for rep in public:
                assert by_name[rep.name + tag] == rep.to_dict() | {"name": rep.name + tag}
            F0 = by_name[f"plane_wave_fisher_zero{tag}"]["measured"]
            assert F0 == float(np.max(fisher_per_dim(pw)))

    def test_report_serialization(self):
        reports = run_all(SuiteConfig(betas=(0.0,), grid_points=256, evolve_steps=20))
        d = reports[0].to_dict()
        assert set(d) == {"name", "passed", "measured", "bound", "details"}
