"""Split-step propagation: transparency, norm, convergence order, homogeneity."""

import math

import numpy as np
import pytest

from gupnlse import (
    DeformationModel,
    DomainError,
    EvolutionConfig,
    Grid,
    PotentialSpec,
    UnitsConfig,
    ValidationError,
    W_eval,
    WaveField,
    effective_potential,
    evolve,
    fisher_per_dim,
    galilean_boost,
    gaussian_state,
    momentum_stats,
    normalize,
    plane_wave,
    solve_consistent,
    step,
)

UNITS = UnitsConfig()
IDENT = DeformationModel.identity()


def l2(grid, values):
    return math.sqrt(float(np.sum(np.abs(values) ** 2)) * grid.cell_volume())


def harmonic_config(beta, dt, steps, zeta=1.0, **kw):
    model = DeformationModel.gup(beta) if beta else IDENT
    return EvolutionConfig(dt=dt, steps=steps, model=model,
                           potential=PotentialSpec.harmonic(zeta), units=UNITS, **kw)


class TestEffectivePotential:
    def test_plane_wave_zero(self):
        g = Grid.centered(8.0, 128, boundary="periodic")
        pw = plane_wave(g, 2 * math.pi * 3 / 16.0)
        V = effective_potential(pw, DeformationModel.gup(1.0), UNITS)
        assert np.max(np.abs(V)) <= 1e-12

    def test_identity_model_zero(self):
        g = Grid.centered(10.0, 256)
        psi = gaussian_state(g, 1.0)
        assert np.max(np.abs(effective_potential(psi, IDENT, UNITS))) == 0.0

    def test_gaussian_closed_form(self):
        sigma, beta = 1.1, 0.3
        g = Grid.centered(8 * sigma, 1024)
        psi = gaussian_state(g, sigma)
        V = effective_potential(psi, DeformationModel.gup(beta), UNITS)
        W = W_eval(UNITS.C * 2 / sigma**2, DeformationModel.gup(beta))
        x = g.axis(0)
        expected = -0.5 * W * (x**2 / sigma**4 - 1 / sigma**2)
        inner = np.abs(x) <= 4 * sigma
        scale = np.max(np.abs(expected[inner]))
        assert np.max(np.abs(V - expected)[inner]) <= 2e-3 * scale

    def test_domain_error_for_narrow_state(self):
        g = Grid.centered(8.0, 512)
        psi = gaussian_state(g, 0.5)  # C F = 1 > 1/(4 beta) for beta = 0.5
        with pytest.raises(DomainError):
            effective_potential(psi, DeformationModel.gup(0.5), UNITS)

    def test_boost_invariance(self):
        g = Grid.centered(12.0, 512, boundary="periodic")
        psi = gaussian_state(g, 1.2)
        model = DeformationModel.gup(0.2)
        V0 = effective_potential(psi, model, UNITS)
        V1 = effective_potential(galilean_boost(psi, 1.3), model, UNITS)
        assert np.max(np.abs(V1 - V0)) <= 1e-12


class TestGalileanBoost:
    def test_zero_velocity_identity(self):
        g = Grid.centered(10.0, 256)
        psi = gaussian_state(g, 1.0)
        assert np.array_equal(galilean_boost(psi, 0.0).values, psi.values)

    def test_momentum_shift(self):
        g = Grid.centered(12.0, 512, boundary="periodic")
        psi = gaussian_state(g, 1.0)
        m0, d0 = momentum_stats(psi)
        m1, d1 = momentum_stats(galilean_boost(psi, 0.9))
        assert m1[0] - m0[0] == pytest.approx(0.9, rel=1e-9)
        assert d1[0] == pytest.approx(d0[0], rel=1e-9)

    def test_importable_from_fields_and_evolution(self):
        import gupnlse
        import gupnlse.evolution
        import gupnlse.fields

        assert gupnlse.galilean_boost is gupnlse.fields.galilean_boost
        assert gupnlse.evolution.galilean_boost is gupnlse.fields.galilean_boost

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_bit_identical_to_dense_loop(self, dims):
        # reference: the per-axis phase sum on dense meshgrid arrays
        def dense_phase(grid, v, units):
            phase = np.zeros(grid.shape)
            for l, X in enumerate(grid.meshgrid()):
                phase = phase + units.mass * v[l] * X / units.hbar
            return np.exp(1j * phase)

        g = Grid.centered(6.0, 16 if dims == 3 else 64, dims=dims)
        units = UnitsConfig(hbar=0.8, mass=1.7)
        sigma, v, ctr = 0.9, (0.7, -1.3, 0.4)[:dims], (0.3, -0.2, 0.1)[:dims]
        psi = gaussian_state(g, sigma, center=ctr, units=units)
        assert np.array_equal(galilean_boost(psi, v).values,
                              psi.values * dense_phase(g, v, units))
        # reference packet on dense arrays, boosted before it is normalized
        logamp = np.zeros(g.shape)
        for l, X in enumerate(g.meshgrid()):
            logamp = logamp - (X - ctr[l]) ** 2 / (2 * sigma**2)
        vals = np.exp(logamp).astype(complex)
        for _ in range(dims):
            vals *= (math.pi * sigma**2) ** -0.25
        expected = normalize(WaveField(g, vals * dense_phase(g, v, units), units))
        boosted = gaussian_state(g, sigma, center=ctr, phase_velocity=v, units=units)
        assert np.array_equal(boosted.values, expected.values)

    def test_modulus_unchanged(self):
        g = Grid.centered(10.0, 256)
        psi = gaussian_state(g, 1.0)
        b = galilean_boost(psi, 2.0)
        assert np.max(np.abs(np.abs(b.values) - np.abs(psi.values))) <= 1e-15


class TestStep:
    def test_plane_wave_phase_advance(self):
        L = 16.0
        g = Grid.centered(L / 2, 128, boundary="periodic")
        k = 2 * math.pi * 5 / L
        pw = plane_wave(g, k)
        cfg = EvolutionConfig(dt=0.01, steps=1, model=DeformationModel.gup(1.0),
                              potential=PotentialSpec.free(), units=UNITS)
        out = step(pw, cfg)
        ratio = out.values / pw.values
        expected = -k**2 * 0.01 / 2  # hbar = m = 1
        assert np.max(np.abs(np.abs(out.values) - 1 / math.sqrt(L))) <= 1e-12
        assert np.max(np.abs(np.angle(ratio) - expected)) <= 1e-10

    def test_norm_drift_single_step(self):
        g = Grid.centered(12.0, 256, boundary="periodic")
        psi = gaussian_state(g, 0.9)
        out = step(psi, harmonic_config(0.2, 1e-3, 1))
        assert abs(out.norm() - 1.0) <= 1e-12

    def test_dirichlet_crank_nicolson_norm(self):
        g = Grid.centered(10.0, 256)
        psi = gaussian_state(g, 1.0)
        out = step(psi, harmonic_config(0.1, 1e-3, 1))
        assert abs(out.norm() - 1.0) <= 1e-12

    def test_stability_guard(self):
        g = Grid.centered(40.0, 512)
        psi = gaussian_state(g, 1.0)
        with pytest.raises(ValidationError):
            step(psi, harmonic_config(0.0, 0.01, 1))  # dt max|V| = 8

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1e-3])
    def test_dt_positive_and_finite(self, dt):
        with pytest.raises(ValidationError, match="dt must be positive and finite"):
            harmonic_config(0.0, dt, 10)

    def test_negative_snapshot_every_rejected(self):
        with pytest.raises(ValidationError, match="snapshot_every"):
            harmonic_config(0.0, 1e-3, 10, snapshot_every=-5)


class TestStrangConvergence:
    def test_second_order_in_dt(self):
        g = Grid.centered(12.0, 256, boundary="periodic")
        sigma = 0.85
        psi0 = gaussian_state(g, sigma)
        T = 0.5
        runs = {}
        for nst in (128, 256, 2048):
            traj = evolve(psi0, harmonic_config(0.2, T / nst, nst))
            assert traj.failure is None
            runs[nst] = traj.psi_final.values
        e1 = l2(g, runs[128] - runs[2048])
        e2 = l2(g, runs[256] - runs[2048])
        assert 3.3 <= e1 / e2 <= 4.7


class TestEvolve:
    def test_identity_coherent_center_oscillates(self):
        g = Grid.centered(12.0, 256, boundary="periodic")
        psi0 = gaussian_state(g, 1.0, center=1.0)
        T = 2 * math.pi
        nst = 4000
        traj = evolve(psi0, harmonic_config(0.0, T / nst, nst))
        centers = np.array([s.mean_x[0] for s in traj.stats])
        expected = np.cos(traj.times)
        assert np.max(np.abs(centers - expected)) <= 1e-4

    def test_norm_conservation_long_run(self):
        g = Grid.centered(12.0, 256, boundary="periodic")
        psi0 = gaussian_state(g, 0.85)
        traj = evolve(psi0, harmonic_config(0.2, 2e-3, 1000))
        assert traj.failure is None
        assert np.max(np.abs(traj.norms - 1.0)) <= 1e-8

    def test_consistent_state_density_stationary(self):
        beta = 0.6  # q = 0.3
        from gupnlse import harmonic_analytic

        ana = harmonic_analytic(beta, 1.0, UNITS)
        g = Grid.centered(8 * math.sqrt(ana.sigma_sq), 384)
        res = solve_consistent(g, PotentialSpec.harmonic(1.0),
                               DeformationModel.gup(beta), UNITS)
        rho0 = np.abs(res.psi.values) ** 2
        nst = int(round(2 * math.pi / 1e-3))
        traj = evolve(res.psi, harmonic_config(beta, 1e-3, nst))
        assert traj.failure is None
        dev = max(
            float(np.max(np.abs(np.abs(s[1].values) ** 2 - rho0)))
            for s in traj.snapshots
        )
        # also check the recorded widths barely move
        widths = np.array([s.delta_x[0] for s in traj.stats])
        assert abs(widths.max() - widths.min()) <= 1e-6
        assert dev <= 1e-6

    def test_homogeneity_breaking_with_deformation(self):
        g = Grid.centered(12.0, 256, boundary="periodic")
        psi0 = gaussian_state(g, 0.85)
        A = 0.5
        scaled = psi0.with_values(A * psi0.values)
        cfg = harmonic_config(0.2, 2 * math.pi / 4000, 4000)
        t_scaled = evolve(scaled, cfg)
        t_base = evolve(psi0, cfg)
        assert t_scaled.failure is None and t_base.failure is None
        ref = A * t_base.psi_final.values
        dev = l2(g, t_scaled.psi_final.values - ref) / l2(g, ref)
        assert dev > 1e-3

    def test_identity_model_is_linear(self):
        g = Grid.centered(12.0, 256, boundary="periodic")
        psi0 = gaussian_state(g, 0.85)
        A = 0.5
        cfg = harmonic_config(0.0, 2 * math.pi / 4000, 4000)
        t_scaled = evolve(psi0.with_values(A * psi0.values), cfg)
        t_base = evolve(psi0, cfg)
        ref = A * t_base.psi_final.values
        dev = l2(g, t_scaled.psi_final.values - ref) / l2(g, ref)
        assert dev <= 1e-10

    def test_truncated_trajectory_on_domain_crossing(self):
        # broad state in a steep trap: contraction pushes C F over the edge
        g = Grid.centered(9.0, 256, boundary="periodic")
        psi0 = gaussian_state(g, 1.0)
        cfg = EvolutionConfig(dt=1e-3, steps=3000, model=DeformationModel.gup(0.25),
                              potential=PotentialSpec.harmonic(9.0), units=UNITS)
        traj = evolve(psi0, cfg)
        assert traj.failed_step is not None
        assert "excluded" in traj.failure
        assert len(traj.times) == traj.failed_step + 1  # truncated, not discarded
        assert len(traj.stats) == len(traj.times)  # the last block was flushed
        assert np.max(np.abs(traj.norms - 1.0)) <= 1e-8

    def test_snapshots_recorded(self):
        g = Grid.centered(12.0, 128, boundary="periodic")
        psi0 = gaussian_state(g, 1.0)
        traj = evolve(psi0, harmonic_config(0.0, 1e-3, 50, snapshot_every=10))
        times = [t for t, _ in traj.snapshots]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.05)
        assert len(times) == 6


class TestHotLoop:
    """evolve takes one Fisher pass per step, on psi_mid, and records from it
    the same statistics field_stats gives for the step's end state."""

    @pytest.mark.parametrize("dims", [1, 2])
    def test_one_fisher_pass_per_step(self, monkeypatch, dims):
        import gupnlse.evolution
        import gupnlse.fields

        calls = []
        original = gupnlse.fields.fisher_per_dim

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # field_stats looks fisher_per_dim up in gupnlse.fields: count both
        monkeypatch.setattr(gupnlse.evolution, "fisher_per_dim", counting)
        monkeypatch.setattr(gupnlse.fields, "fisher_per_dim", counting)
        g = Grid.centered(12.0, 128 if dims == 1 else 48, dims=dims, boundary="periodic")
        steps = 17
        traj = evolve(gaussian_state(g, 0.85), harmonic_config(0.2, 1e-3, steps))
        assert traj.failure is None
        assert len(calls) == steps + 1

    @pytest.mark.parametrize("boundary,dims,points", [
        ("periodic", 1, 256), ("dirichlet", 1, 256), ("periodic", 2, 64),
    ])
    def test_last_row_matches_field_stats(self, boundary, dims, points):
        from gupnlse import field_stats

        g = Grid.centered(8.0, points, dims=dims, boundary=boundary)
        psi0 = gaussian_state(g, 0.9, center=(0.5, -0.3)[:dims],
                              phase_velocity=(0.4, -0.2)[:dims])
        traj = evolve(psi0, harmonic_config(0.2, 1e-3, 20))
        assert traj.failure is None
        last, ref = traj.stats[-1], field_stats(traj.psi_final)
        for name in ("norm", "mean_x", "delta_x", "mean_p", "delta_p",
                     "fisher", "delta_x_small", "delta_N_w"):
            got, want = np.atleast_1d(getattr(last, name)), np.atleast_1d(getattr(ref, name))
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), name


class TestStatsBlocks:
    """evolve computes its statistics rows in blocks after the steps; the
    block size changes when they are computed, never what they are."""

    @staticmethod
    def _rows(traj):
        return np.array([[s.norm, *s.mean_x, *s.delta_x, *s.mean_p, *s.delta_p,
                          *s.fisher, *s.delta_x_small, *s.delta_N_w] for s in traj.stats])

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    @pytest.mark.parametrize("block_bytes", [1, 3 * 256 * 16])
    def test_block_size_leaves_rows_unchanged(self, monkeypatch, boundary, block_bytes):
        import gupnlse.evolution

        g = Grid.centered(8.0, 256, boundary=boundary)
        psi0 = gaussian_state(g, 0.9, center=0.5, phase_velocity=0.4)
        cfg = harmonic_config(0.2, 1e-3, 20)
        ref = evolve(psi0, cfg)
        # 1 byte: the grid exceeds the block, one row per block; 3 states:
        # blocks of 3 rows, the last one partly filled
        monkeypatch.setattr(gupnlse.evolution, "_STATS_BLOCK_BYTES", block_bytes)
        traj = evolve(psi0, cfg)
        assert len(traj.stats) == len(traj.times) == cfg.steps + 1
        assert self._rows(traj).tobytes() == self._rows(ref).tobytes()
        assert traj.psi_final.values.tobytes() == ref.psi_final.values.tobytes()

    def test_non_finite_initial_state_rejected(self):
        g = Grid.centered(8.0, 128, boundary="periodic")
        psi0 = gaussian_state(g, 0.9)
        vals = psi0.values.copy()
        vals[64] = complex(math.nan, 0.0)
        with pytest.raises(ValidationError):
            evolve(psi0.with_values(vals), harmonic_config(0.0, 1e-3, 5))


class TestSeparability2D:
    def test_product_state_evolves_as_tensor(self):
        n, half = 64, 8.0
        g1 = Grid.centered(half, n, boundary="periodic")
        p1 = gaussian_state(g1, 0.9)
        p2 = gaussian_state(g1, 1.1)
        g2 = Grid.centered(half, n, dims=2, boundary="periodic")
        from gupnlse import WaveField

        prod = WaveField(g2, np.multiply.outer(p1.values, p2.values), UNITS)
        cfg = harmonic_config(0.15, 4e-3, 100)
        t2 = evolve(prod, cfg)
        ta = evolve(p1, cfg)
        tb = evolve(p2, cfg)
        assert t2.failure is None
        tensor = np.multiply.outer(ta.psi_final.values, tb.psi_final.values)
        assert np.max(np.abs(t2.psi_final.values - tensor)) <= 1e-6
