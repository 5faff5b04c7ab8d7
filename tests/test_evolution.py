"""Split-step propagation: transparency, norm, convergence order, homogeneity."""

import math
import re
import warnings

import numpy as np
import pytest

import gupnlse.evolution
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
    ermakov_width,
    evolve,
    field_stats,
    fisher_per_dim,
    galilean_boost,
    gaussian_state,
    harmonic_analytic,
    momentum_stats,
    normalize,
    plane_wave,
    solve_consistent,
    step,
)
from gupnlse.evolution import _STATS_BLOCK_BYTES, _acts

UNITS = UnitsConfig()
IDENT = DeformationModel.identity()


def inward_chirp(dt=1e-3):
    """A packet that crosses the W domain edge: the Gaussian of width sigma =
    sqrt(2) (Delta x = X0 = 1) with the inward chirp exp(-i x^2), so that
    X'(0) = V0 = -2, in the well 0.5 x^2 at beta = 0.25, periodic on +-10 with
    512 points.  By ermakov_width its X reaches the edge hbar sqrt(beta) = 0.5
    at t* = 0.2552; evolve truncates it at step 155 for dt = 1e-3."""
    g = Grid.centered(10.0, 512, boundary="periodic")
    psi0 = gaussian_state(g, math.sqrt(2.0))
    psi0 = psi0.with_values(psi0.values * np.exp(-1j * g.axis(0) ** 2))
    return psi0, EvolutionConfig(dt=dt, steps=3000, model=DeformationModel.gup(0.25),
                                 potential=PotentialSpec.harmonic(1.0))


def l2(grid, values):
    return math.sqrt(float(np.sum(np.abs(values) ** 2)) * grid.cell_volume())


def harmonic_config(beta, dt, steps, zeta=1.0, **kw):
    model = DeformationModel.gup(beta) if beta else IDENT
    return EvolutionConfig(dt=dt, steps=steps, model=model,
                           potential=PotentialSpec.harmonic(zeta), **kw)


class TestEffectivePotential:
    def test_plane_wave_zero(self):
        g = Grid.centered(8.0, 128, boundary="periodic")
        pw = plane_wave(g, 2 * math.pi * 3 / 16.0)
        V = effective_potential(pw, DeformationModel.gup(1.0))
        assert np.max(np.abs(V)) == 0.0

    def test_identity_model_zero(self):
        g = Grid.centered(10.0, 256)
        psi = gaussian_state(g, 1.0)
        assert np.max(np.abs(effective_potential(psi, IDENT))) == 0.0

    def test_gaussian_closed_form(self):
        sigma, beta = 1.1, 0.3
        g = Grid.centered(8 * sigma, 1024)
        psi = gaussian_state(g, sigma)
        V = effective_potential(psi, DeformationModel.gup(beta))
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
            effective_potential(psi, DeformationModel.gup(0.5))

    def test_boost_invariance(self):
        g = Grid.centered(12.0, 512, boundary="periodic")
        psi = gaussian_state(g, 1.2)
        model = DeformationModel.gup(0.2)
        V0 = effective_potential(psi, model)
        V1 = effective_potential(galilean_boost(psi, 1.3), model)
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

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_unsampled_phase_rejected(self, boundary):
        # m v x / hbar not finite on the grid, or a step of pi or more per
        # cell, where the grid aliases the boost: refused before any array
        g = Grid.centered(8.0, 64, dims=2, boundary=boundary)
        units = UnitsConfig(hbar=0.8, mass=1.7)
        psi = gaussian_state(g, 1.0, units=units)
        per_pi = math.pi * units.hbar / (units.mass * g.spacing[1])  # velocity of a pi step
        for v in (math.nan, math.inf, 1e308, 1e300, (0.0, 1.01 * per_pi), (0.0, -1.01 * per_pi)):
            with pytest.raises(ValidationError, match="boost phase"):
                galilean_boost(psi, v)
            with pytest.raises(ValidationError, match="boost phase"):
                gaussian_state(g, 1.0, phase_velocity=v, units=units)
        boosted = galilean_boost(psi, (0.0, 0.99 * per_pi))
        assert np.all(np.isfinite(boosted.values))

    def test_modulus_unchanged(self):
        g = Grid.centered(10.0, 256)
        psi = gaussian_state(g, 1.0)
        b = galilean_boost(psi, 2.0)
        assert np.max(np.abs(np.abs(b.values) - np.abs(psi.values))) <= 1e-15


class TestStep:
    @pytest.mark.parametrize("hbar, mass", [(1.0, 1.0), (0.7, 1.3)])
    def test_plane_wave_phase_advance(self, hbar, mass):
        L = 16.0
        g = Grid.centered(L / 2, 128, boundary="periodic")
        k = 2 * math.pi * 5 / L
        pw = plane_wave(g, k, UnitsConfig(hbar=hbar, mass=mass))
        cfg = EvolutionConfig(dt=0.01, steps=1, model=DeformationModel.gup(1.0),
                              potential=PotentialSpec.free())
        out = step(pw, cfg)
        ratio = out.values / pw.values
        expected = -hbar * k**2 * 0.01 / (2 * mass)  # in the state's units
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

    @pytest.mark.parametrize("field", ["steps", "snapshot_every"])
    @pytest.mark.parametrize("dims,points", [(2, 128), (1, 128)], ids=["128x128", "ring-128"])
    def test_step_counts_are_integers(self, field, dims, points):
        """steps = 1.5 would never meet the loop's n == steps on a 128^2 grid
        (one-row blocks), and raise a bare TypeError from np.empty on a
        128-point ring: the config rejects it, and any non-integer count.
        numpy integers are integers."""
        g = Grid.centered(8.0, points, dims=dims, boundary="periodic")
        psi0 = gaussian_state(g, 0.9)
        counts = {"steps": 3, "snapshot_every": 1}
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            evolve(psi0, harmonic_config(0.0, 1e-3, **{**counts, field: 1.5}))
        counts[field] = np.int64(counts[field])
        traj = evolve(psi0, harmonic_config(0.0, 1e-3, **counts))
        assert traj.failure is None and len(traj.times) == len(traj.snapshots) == 4


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
        psi0, cfg = inward_chirp()
        traj = evolve(psi0, cfg)
        assert traj.failed_step is not None
        assert "excluded" in traj.failure
        assert len(traj.times) == traj.failed_step + 1  # truncated, not discarded
        assert len(traj.stats) == len(traj.times)  # the last block was flushed
        assert np.max(np.abs(traj.norms - 1.0)) <= 1e-8

    def test_truncated_when_a_block_fills_at_the_failing_step(self, monkeypatch):
        """A full block is flushed before the step that fails: the run ends
        with an empty block, which it must not flush, and the same rows."""
        import gupnlse.evolution

        psi0, cfg = inward_chirp()
        ref = evolve(psi0, cfg)
        assert ref.failed_step is not None
        # the failing step finds failed_step + 1 states held: one full block
        monkeypatch.setattr(gupnlse.evolution, "_STATS_BLOCK_BYTES",
                            (ref.failed_step + 1) * psi0.values.nbytes)
        traj = evolve(psi0, cfg)
        assert traj.failed_step == ref.failed_step and traj.failure == ref.failure
        assert len(traj.stats) == len(traj.times) == len(ref.stats)
        assert TestStatsBlocks._rows(traj).tobytes() == TestStatsBlocks._rows(ref).tobytes()

    @pytest.mark.xfail(strict=True, reason="explicit V_W blows up before the crossing: ROADMAP item 1")
    def test_truncated_at_the_crossing_time(self):
        psi0, cfg = inward_chirp()
        with pytest.raises(DomainError) as err:
            ermakov_width(0.25, 1.0, 1.0, -2.0, 0.5)
        t_star = float(re.search(r"t\* = ([0-9.e+-]+)", str(err.value)).group(1))
        traj = evolve(psi0, cfg)
        assert traj.failed_step is not None
        assert abs(traj.times[-1] - t_star) <= 2 * cfg.dt, (traj.times[-1], t_star)

    def test_overflowed_fisher_is_not_labelled_physics(self):
        # a packet too narrow for double precision: F overflows to inf, which
        # at beta = 0 has no domain edge to cross.  hbar = 1e-160 keeps the
        # kinetic coupling finite (about 506); the Fisher pass's overflow
        # warning is expected here.
        psi0 = gaussian_state(Grid.centered(1e-160, 64), 1e-161, units=UnitsConfig(hbar=1e-160))
        cfg = EvolutionConfig(dt=1e-3, steps=2, model=IDENT, potential=PotentialSpec.free())
        with np.errstate(over="ignore"), pytest.raises(DomainError) as err:
            evolve(psi0, cfg)
        assert "excluded" not in str(err.value)

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_coupling_past_double_precision_is_rejected(self, boundary):
        # at hbar = 1 the same grid's hbar^2 / (2 m dx^2) overflows: evolve
        # rejects it before it builds the propagator's arrays, with no warning
        grid = Grid.centered(1e-160, 64, boundary=boundary)
        psi0 = gaussian_state(grid, 1e-161)
        cfg = EvolutionConfig(dt=1e-3, steps=2, model=IDENT, potential=PotentialSpec.free())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError) as err:
                evolve(psi0, cfg)
        assert f"dx = {grid.spacing[0]:g}" in str(err.value)

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
    the same statistics field_stats gives for the step's end state, and the
    W of each axis, as W_eval gives it for that axis's Python float."""

    @pytest.mark.parametrize("dims", [1, 2, 3])
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
        extent, points = {1: (12.0, 128), 2: (12.0, 48), 3: (6.0, 32)}[dims]
        g = Grid.centered(extent, points, dims=dims, boundary="periodic")
        steps = 17
        traj = evolve(gaussian_state(g, 0.85), harmonic_config(0.2, 1e-3, steps))
        assert traj.failure is None
        assert len(calls) == steps + 1
        model = DeformationModel.gup(0.2)
        assert traj.W_history.shape == (steps + 1, dims)
        for W, row in zip(traj.W_history, traj.stats, strict=True):
            assert W.tolist() == [W_eval(UNITS.C * f, model) for f in row.fisher]

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


class TestResolvedW:
    """V_W acts on axis l only where 1 + W_l != 1.  A plane wave's F is
    rounding, so its W is below 2^-53: its half-step phase is built once and
    its trajectory is the beta = 0 one, while W_history still records W."""

    @pytest.mark.parametrize("state,beta", [
        ("plane", 1e-4), ("plane", 1e-2), ("plane", 1.0), ("gaussian", 0.2),
    ])
    def test_half_phase_built_where_W_acts(self, monkeypatch, state, beta):
        import gupnlse.evolution

        calls = []
        original = gupnlse.evolution._half_phase

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        L, steps = 16.0, 200
        g = Grid.centered(L / 2, 128, boundary="periodic")
        psi0 = plane_wave(g, 2 * math.pi * 3 / L) if state == "plane" else gaussian_state(g, 0.85)

        def run(b):
            traj = evolve(psi0, EvolutionConfig(
                dt=1e-3, steps=steps, model=DeformationModel.gup(b), potential=PotentialSpec.free()))
            assert traj.failure is None
            return traj

        reference = run(0.0)
        monkeypatch.setattr(gupnlse.evolution, "_half_phase", counting)
        traj = run(beta)
        if state == "gaussian":
            assert len(calls) == steps + 1
            return
        assert len(calls) == 1  # the set-up one
        assert traj.psi_final.values.tobytes() == reference.psi_final.values.tobytes()
        for row, ref in zip(traj.stats, reference.stats, strict=True):
            for got, want in zip(row, ref):
                assert np.array_equal(got, want)
        model = DeformationModel.gup(beta)
        assert np.all(traj.W_history > 0.0)
        for W, row in zip(traj.W_history, traj.stats, strict=True):
            assert W.tolist() == [W_eval(UNITS.C * f, model) for f in row.fisher]


class TestPendingRows:
    """A run whose W(psi0) acts on no axis is linear: a block's rows wait for
    one stacked Fisher pass.  A row whose W acts, or that raises, ends the
    linear run, and the run starts again from psi0 one step at a time.  The
    block size changes how many passes a run takes, never what it records."""

    @staticmethod
    def _run(monkeypatch, psi0, cfg, block_states):
        """evolve with blocks of block_states states (0: of 1 byte; None: the
        default), and the rows of each call to evolve's fisher_per_dim."""
        block_bytes = {None: _STATS_BLOCK_BYTES, 0: 1}.get(block_states)
        monkeypatch.setattr(gupnlse.evolution, "_STATS_BLOCK_BYTES",
                            block_bytes or block_states * psi0.values.nbytes)
        rows = []

        def counting(rho, *args, **kwargs):
            rows.append(len(rho) if rho.ndim > psi0.grid.dims else 1)
            return fisher_per_dim(rho, *args, **kwargs)

        monkeypatch.setattr(gupnlse.evolution, "fisher_per_dim", counting)
        return evolve(psi0, cfg), rows

    @staticmethod
    def _bits(traj):
        return (traj.times.tobytes(), TestStatsBlocks._rows(traj).tobytes(),
                traj.W_history.tobytes(), traj.psi_final.values.tobytes(),
                [(t, s.values.tobytes()) for t, s in traj.snapshots],
                traj.failed_step, traj.failure)

    @pytest.mark.parametrize("beta,steps,first_acting", [(0.2, 20, 1), (1e-11, 30, 10)])
    def test_restart_leaves_the_run_unchanged(self, monkeypatch, beta, steps, first_acting):
        """A plane wave in a harmonic well: its W is below 2^-53 at t = 0 and
        acts from row first_acting on.  Whatever the block size, from one
        row (blocks of 1 byte and of 1 state) up, the linear run finds that
        row in a stacked pass, and the run starts again from psi0 with one
        pass per step."""
        g = Grid.centered(8.0, 128, boundary="periodic")
        psi0 = plane_wave(g, 2 * math.pi * 3 / 16.0)
        cfg = harmonic_config(beta, 1e-3, steps, snapshot_every=1)
        runs = {b: self._run(monkeypatch, psi0, cfg, b) for b in (None, 0, 1, 2, 3)}
        W = runs[None][0].W_history[:, 0]
        assert not _acts(W[first_acting - 1]) and _acts(W[first_acting])
        want = self._bits(runs[None][0])
        assert len(want[4]) == steps + 1 and want[5] is None
        for b, (traj, rows) in runs.items():
            assert self._bits(traj) == want, b
            # psi0's pass, the linear run's, then one per step from psi0
            assert rows[0] == 1 and rows[-steps:] == [1] * steps, b

    @pytest.mark.parametrize("k", [5, 7], ids=["mid-block", "row-0"])
    def test_domain_error_in_a_pending_row(self, monkeypatch, k):
        """A nan written into step k's state is found by a stacked pass; the
        run started again per step raises it at step k, whatever the block
        size.  With blocks of 4 states, step 5 lands in row 2 of a block and
        step 7 in row 0."""
        from gupnlse.evolution import _KineticPropagator

        g = Grid.centered(8.0, 128, boundary="periodic")
        psi0 = gaussian_state(g, 0.9, phase_velocity=0.4)
        cfg = harmonic_config(0.0, 1e-3, 24)
        inputs, original = [], _KineticPropagator.apply

        def recording(self, values):
            inputs.append(values.tobytes())
            return original(self, values)

        monkeypatch.setattr(_KineticPropagator, "apply", recording)
        assert evolve(psi0, cfg).failure is None
        target = inputs[k]  # step k's input, which the per-step run repeats

        def faulty(self, values):
            hit = values.tobytes() == target
            out = original(self, values)
            if hit:
                out[3] = math.nan
            return out

        monkeypatch.setattr(_KineticPropagator, "apply", faulty)
        runs = [self._run(monkeypatch, psi0, cfg, b)[0] for b in (0, 4)]
        for traj in runs:
            assert traj.failed_step == k and "non-finite" in traj.failure
            assert len(traj.stats) == len(traj.times) == k + 1
        assert self._bits(runs[1]) == self._bits(runs[0])

    def test_one_stacked_pass_per_block(self, monkeypatch):
        """A 200-step plane wave: one pass on the initial state, then one
        stacked pass per block, steps + 1 rows in all."""
        g = Grid.centered(8.0, 128, boundary="periodic")
        psi0 = plane_wave(g, 2 * math.pi * 3 / 16.0)
        steps = 200
        cfg = EvolutionConfig(dt=1e-3, steps=steps, model=DeformationModel.gup(1e-2),
                              potential=PotentialSpec.free())
        traj, rows = self._run(monkeypatch, psi0, cfg, None)
        assert traj.failure is None
        block_rows = _STATS_BLOCK_BYTES // psi0.values.nbytes
        assert block_rows == 64
        assert sum(rows) == steps + 1
        assert len(rows) == 1 + math.ceil((steps + 1) / block_rows)


def _free(beta, steps, **kw):
    model = DeformationModel.gup(beta) if beta else IDENT
    return EvolutionConfig(dt=1e-3, steps=steps, model=model, potential=PotentialSpec.free(), **kw)


class TestCarriedSpectrum:
    """On a free ring (periodic, no potential) the half-step phase of a
    linear run (W(psi0) acts on no axis) is 1, so a step multiplies the
    spectrum carried from the last step, and a block's pending rows go back
    to position space in one stacked inverse transform.  A run that starts
    again per step carries nothing.  The block size still changes nothing a
    run records."""

    _run, _bits = staticmethod(TestPendingRows._run), staticmethod(TestPendingRows._bits)
    BLOCKS = (None, 0, 1, 2, 3)  # the default, 1 byte, and 1, 2, 3 states

    @pytest.mark.parametrize("state,beta,dims", [
        ("plane", 0.0, 1), ("plane", 1e-2, 1), ("gaussian", 0.0, 1), ("gaussian", 0.0, 2),
    ])
    def test_block_size_leaves_free_runs_unchanged(self, monkeypatch, state, beta, dims):
        g = Grid.centered(8.0, 128 if dims == 1 else 48, dims=dims, boundary="periodic")
        psi0 = (plane_wave(g, 2 * math.pi * 3 / 16.0) if state == "plane" else gaussian_state(
            g, 0.9, center=(0.5, -0.3)[:dims], phase_velocity=(0.4, -0.2)[:dims]))
        cfg = _free(beta, 40, snapshot_every=7)
        runs = {b: self._run(monkeypatch, psi0, cfg, b)[0] for b in self.BLOCKS}
        want = self._bits(runs[None])
        assert want[5] is None and len(want[4]) == 40 // 7 + 2
        assert not any(map(_acts, runs[None].W_history.ravel()))
        for b, traj in runs.items():
            assert self._bits(traj) == want, b

    @pytest.mark.parametrize("dims", [1, 2])
    def test_momentum_columns_read_the_carried_spectra(self, dims):
        """A carried run's statistics read |S|^2 from its blocks' spectrum
        rows, and transform no state forward after the carry starts; the
        forward transform of each state, as field_stats takes it, gives the
        same mean_p and delta_p to 1e-14 relative."""
        g = Grid.centered(8.0, 128 if dims == 1 else 32, dims=dims, boundary="periodic")
        forward, calls = g.transforms[0], []

        def counting(a, out):
            calls.append(1)
            return forward(a, out=out)

        psi0 = gaussian_state(g, 0.9, center=(0.5, -0.3)[:dims],
                              phase_velocity=(1.0, -0.6)[:dims])
        g.__dict__["transforms"] = (counting, g.transforms[1])  # the cached_property's slot
        traj = evolve(psi0, _free(0.0, 150, snapshot_every=1))
        assert len(calls) == 1 and len(traj.snapshots) == len(traj.stats) == 151
        for row, (_, psi) in zip(traj.stats, traj.snapshots):
            want = field_stats(psi)
            for got, ref in ((row.mean_p, want.mean_p), (row.delta_p, want.delta_p)):
                np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)
        assert len(calls) == 152  # field_stats transformed each state forward

    def test_run_stays_per_step_when_W_stops_acting(self, monkeypatch):
        """A narrow Gaussian at beta = 7.5e-18, whose W starts just above
        2^-53 and falls below it as the packet spreads: W(psi0) acts, so the
        run steps with its half-step phase all the way, and carries no
        spectrum once W stops acting."""
        g = Grid.centered(4.0, 128, boundary="periodic")
        psi0 = gaussian_state(g, 0.3)
        cfg = _free(7.5e-18, 100, snapshot_every=7)
        forward, calls = g.transforms[0], []

        def counting(a, out):
            calls.append(1)
            return forward(a, out=out)

        g.__dict__["transforms"] = (counting, g.transforms[1])  # the cached_property's slot
        ref = evolve(psi0, cfg)
        acts = [_acts(w) for w in ref.W_history[:, 0]]
        first = acts.index(False)
        assert 1 < first < cfg.steps and not any(acts[first:])
        # one per step, and one per statistics block
        assert len(calls) == cfg.steps + math.ceil((cfg.steps + 1) / 64)
        want = self._bits(ref)
        for b in self.BLOCKS:
            assert self._bits(self._run(monkeypatch, psi0, cfg, b)[0]) == want, b

    @pytest.mark.parametrize("first_acting", [1, 5, 10])
    def test_W_that_acts_in_a_pending_row(self, monkeypatch, first_acting):
        """A Gaussian focusing under the chirp exp(-0.5i x^2), whose F grows,
        at the smallest beta whose W acts at row first_acting: there its W
        crosses 2^-53 by itself.  The linear run finds the row in a stacked
        pass, whatever the block size, and the run starts again from psi0,
        one pass per step, with W acting from that row on."""
        g = Grid.centered(8.0, 128, boundary="periodic")
        psi0 = gaussian_state(g, 1.0)
        psi0 = psi0.with_values(psi0.values * np.exp(-0.5j * g.axis(0) ** 2))
        steps = 30
        F = evolve(psi0, _free(0.0, steps)).stats[first_acting].fisher[0]  # the linear run's
        lo, hi = 0.0, 1e-3  # W(C F) acts at hi and not at lo
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if _acts(W_eval(UNITS.C * F, DeformationModel.gup(mid))):
                hi = mid
            else:
                lo = mid
        cfg = _free(hi, steps, snapshot_every=1)
        runs = {b: self._run(monkeypatch, psi0, cfg, b) for b in self.BLOCKS}
        acts = [_acts(w) for w in runs[None][0].W_history[:, 0]]
        assert acts == [i >= first_acting for i in range(steps + 1)]
        want = self._bits(runs[None][0])
        assert want[5] is None and len(want[4]) == steps + 1
        for b, (traj, rows) in runs.items():
            assert self._bits(traj) == want, b
            assert rows[0] == 1 and rows[-steps:] == [1] * steps, b

    @pytest.mark.parametrize("k", [5, 7], ids=["mid-block", "row-0"])
    def test_nan_in_a_pending_free_row(self, monkeypatch, k):
        """A nan written by the inverse transform into step k's state: the
        stacked pass finds it, and the run started again per step raises it
        at step k, whatever the block size.  That run transforms through
        position space, so the fault matches step k's spectrum to 1e-9 rather
        than bit for bit.  With blocks of 4 states, step 5 lands in row 2 of a
        block and step 7 in row 0."""
        g = Grid.centered(8.0, 128, boundary="periodic")
        psi0 = plane_wave(g, 2 * math.pi * 3 / 16.0)
        cfg = _free(1e-2, 24)
        forward, inverse = g.transforms
        inputs = []

        def recording(a, out):
            inputs.append(a.reshape(g.shape).copy())  # one row per call: blocks of 1 byte
            return inverse(a, out=out)

        g.__dict__["transforms"] = (forward, recording)
        assert self._run(monkeypatch, psi0, cfg, 0)[0].failure is None
        target = inputs[k]  # step k's spectrum, which the per-step run transforms again

        def faulty(a, out):
            inverse(a, out=out)
            for row, spectrum in zip(out.reshape(-1, *g.shape), a.reshape(-1, *g.shape)):
                if np.allclose(spectrum, target, rtol=0, atol=1e-9):
                    row[3] = math.nan
            return out

        g.__dict__["transforms"] = (forward, faulty)
        runs = [self._run(monkeypatch, psi0, cfg, b)[0] for b in (0, 4)]
        for traj in runs:
            assert traj.failed_step == k and "non-finite" in traj.failure
            assert len(traj.stats) == len(traj.times) == k + 1
        assert self._bits(runs[1]) == self._bits(runs[0])

    @pytest.mark.parametrize("beta", [0.0, 1e-2])
    def test_plane_wave_keeps_its_dispersion_relation(self, beta):
        """The check suite's plane wave over 1000 steps: psi0 exp(-i hbar k^2 t / 2m)
        to 1e-14.  Each step rounds only its multiplier and its inverse
        transform; a step through position space read 3.6e-14."""
        L, steps, dt = 16.0, 1000, 1e-3
        g = Grid.centered(L / 2, 128, boundary="periodic")
        k = 2 * math.pi * 3 / L
        psi0 = plane_wave(g, k)
        traj = evolve(psi0, _free(beta, steps))
        assert traj.failure is None
        want = psi0.values * np.exp(-1j * UNITS.hbar * k**2 * steps * dt / (2 * UNITS.mass))
        assert np.max(np.abs(traj.psi_final.values - want)) <= 1e-14


class TestTransforms:
    """The 1D spectral step and statistics run on the grid's transforms;
    np.fft's fft and ifft in their place give the same run, bit for bit."""

    @pytest.mark.parametrize("state,beta", [("plane", 0.0), ("plane", 1e-2), ("gaussian", 0.2)])
    def test_np_fft_in_the_grid_cache_gives_the_same_run(self, state, beta):
        L, calls = 16.0, []

        def forward(a, out):
            calls.append(1)
            return np.fft.fft(a, out=out)

        def run(transforms):
            g = Grid.centered(L / 2, 128, boundary="periodic")
            if transforms:
                g.__dict__["transforms"] = transforms  # the cached_property's slot
            psi0 = plane_wave(g, 2 * math.pi * 3 / L) if state == "plane" else gaussian_state(g, 0.85)
            traj = evolve(psi0, EvolutionConfig(
                dt=1e-3, steps=200, model=DeformationModel.gup(beta), potential=PotentialSpec.free()))
            assert traj.failure is None
            return traj

        traj, ref = run(None), run((forward, np.fft.ifft))
        if state == "plane":
            # a free ring whose W acts on no axis carries its spectrum: one
            # forward transform as the carry starts, and the statistics read
            # the momentum moments from the carried rows
            assert len(calls) == 1
        else:
            assert len(calls) > 200  # one per step, and one per statistics block
        assert traj.psi_final.values.tobytes() == ref.psi_final.values.tobytes()
        assert traj.W_history.tobytes() == ref.W_history.tobytes()
        assert repr(traj.stats) == repr(ref.stats)  # repr tells every float apart, -0.0 too

    def test_multiplier_equals_complex_division(self):
        from gupnlse.evolution import _KineticPropagator

        g = Grid.centered((3.0, 5.0), (16, 21), dims=2, boundary="periodic")
        units, dt = UnitsConfig(hbar=0.7, mass=1.3), 1e-3
        k2 = sum(k**2 for k in g.sparse_wavenumbers)
        want = np.exp(-1j * units.hbar * k2 * dt / (2 * units.mass))
        assert np.array_equal(_KineticPropagator(g, dt, units).multiplier, want)


class TestErmakovOracle:
    """A Gaussian stays Gaussian under the deformed evolution, its width
    Delta x following ermakov_width's ODE: a squeezed packet at 0.8 times the
    consistent width oscillates in the harmonic well, and evolve tracks it at
    second order in dx."""

    def test_squeezed_packet_second_order_in_dx(self):
        beta, zeta, dt, steps = 0.2, 1.0, 2.5e-4, 4000
        sigma = 0.8 * math.sqrt(harmonic_analytic(beta, zeta).sigma_sq)
        X = ermakov_width(beta, zeta, sigma / math.sqrt(2), 0.0, dt * np.arange(steps + 1))
        assert abs(X[-1] - 0.944731217718) <= 1e-10
        errors = []
        for n in (128, 256, 512):
            g = Grid.centered(6.0, n, boundary="periodic")
            traj = evolve(gaussian_state(g, sigma), harmonic_config(beta, dt, steps, zeta))
            assert traj.failure is None
            errors.append(max(abs(row.delta_x[0] - x) for row, x in zip(traj.stats, X, strict=True)))
        ratios = [errors[0] / errors[1], errors[1] / errors[2]]
        assert all(3.5 <= r <= 4.5 for r in ratios), (errors, ratios)
        assert errors[2] <= 3e-5, errors

    def test_domain_crossing_names_its_time(self):
        # the inward chirp of inward_chirp(): X0 = 1, V0 = -2 reaches the edge
        # hbar sqrt(beta) = 0.5 of the W domain
        with pytest.raises(DomainError, match="edge") as err:
            ermakov_width(0.25, 1.0, 1.0, -2.0, 0.5)
        assert round(float(re.search(r"t\* = ([0-9.e+-]+)", str(err.value)).group(1)), 4) == 0.2552
        # slower, it turns before the edge
        assert round(ermakov_width(0.25, 1.0, 1.0, -1.5, 0.5), 5) == 0.68151
        # X0^2 underflows: C / X0^2 has no value to start from
        with pytest.raises(ValidationError, match="X0"):
            ermakov_width(0.25, 1.0, 1e-200, 0.0, 0.5)


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

    def test_block_size_leaves_2d_rows_unchanged(self, monkeypatch):
        """On a 2D periodic grid the marginals and spectra of one-row blocks
        and of 3-row blocks give the same rows."""
        import gupnlse.evolution

        g = Grid.centered(8.0, 48, dims=2, boundary="periodic")
        psi0 = gaussian_state(g, 0.9, center=(0.5, -0.3), phase_velocity=(0.4, -0.2))
        cfg = harmonic_config(0.2, 1e-3, 20)
        rows = {}
        for states in (1, 3):
            monkeypatch.setattr(gupnlse.evolution, "_STATS_BLOCK_BYTES",
                                states * psi0.values.nbytes)
            traj = evolve(psi0, cfg)
            assert len(traj.stats) == len(traj.times) == cfg.steps + 1
            rows[states] = self._rows(traj).tobytes()
        assert rows[1] == rows[3]

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


class TestWorkspace:
    """evolve's steps write into work arrays that live for one run; what it
    hands out are copies of them."""

    @pytest.mark.parametrize("dims", [1, 2])
    def test_snapshots_are_copies(self, dims):
        g = Grid.centered(8.0, 128 if dims == 1 else 48, dims=dims, boundary="periodic")
        psi0 = gaussian_state(g, 0.85, phase_velocity=(0.4, -0.2)[:dims])
        steps = 6
        traj = evolve(psi0, harmonic_config(0.2, 1e-3, steps, snapshot_every=1))
        assert traj.failure is None
        arrays = [snap.values for _, snap in traj.snapshots]
        assert len(arrays) == steps + 1
        for i, a in enumerate(arrays):
            assert not np.shares_memory(a, traj.psi_final.values)
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        for k in range(1, steps + 1):
            ref = evolve(psi0, harmonic_config(0.2, 1e-3, k)).psi_final.values
            assert arrays[k].tobytes() == ref.tobytes(), k

    @pytest.mark.parametrize("boundary,dims,points,extent", [
        ("periodic", 2, 128, 12.0), ("dirichlet", 1, 1024, 20.0),
    ], ids=["periodic-2-128", "dirichlet-1-1024"])
    def test_steps_allocate_no_grid_array(self, boundary, dims, points, extent):
        """A run's traced peak memory does not grow with its step count by
        as much as one complex grid array: the steps reuse the workspace."""
        import tracemalloc

        g = Grid.centered(extent, points, dims=dims, boundary=boundary)
        psi0 = gaussian_state(g, 0.85)
        evolve(psi0, harmonic_config(0.2, 1e-3, 2))  # first-call caches and imports

        def traced_peak(steps):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                traj = evolve(psi0, harmonic_config(0.2, 1e-3, steps))
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert traj.failure is None
            return peak

        assert traced_peak(40) - traced_peak(10) < psi0.values.nbytes


def _reference_run(psi0, beta, potential, dt, steps):
    """The Strang step written out as plain array expressions: spectral or
    Crank-Nicolson (scipy's banded solver) kinetic sub-step, F and W of
    psi_mid, the V_W of its modulus, and the two half-rotations."""
    from scipy.linalg import solve_banded

    from gupnlse import abs_curvature_ratio

    grid, model = psi0.grid, DeformationModel.gup(beta)
    V = potential.evaluate(grid)

    def kinetic(v):
        if grid.boundary == "periodic":
            k2 = sum(np.meshgrid(*[k**2 for k in grid.wavenumbers], indexing="ij"))
            return np.fft.ifftn(np.fft.fftn(v) * np.exp(-0.5j * k2 * dt))
        for l in range(grid.dims):
            n, h = grid.points_per_dim[l], grid.spacing[l]
            theta, coef = 0.5j * dt, 0.5 / h**2
            ab = np.zeros((3, n), complex)
            ab[0, 1:] = ab[2, :-1] = -theta * coef
            ab[1] = 1.0 + 2 * theta * coef
            x = np.moveaxis(v, l, 0)
            rhs = (1.0 - 2 * theta * coef) * x
            rhs[:-1] += theta * coef * x[1:]
            rhs[1:] += theta * coef * x[:-1]
            v = np.moveaxis(solve_banded((1, 1), ab, rhs.reshape(n, -1)).reshape(x.shape), 0, l)
        return v

    def half_step(psi):
        W = W_eval(UNITS.C * fisher_per_dim(psi), model)
        VW = sum(-0.5 * W[l] * abs_curvature_ratio(psi, l) for l in range(grid.dims))
        return np.exp(-1j * (V + VW) * dt / 2), W

    half, W = half_step(psi0)
    vals, W_hist = psi0.values, [W]
    for _ in range(steps):
        mid = WaveField(grid, kinetic(vals * half), UNITS)
        half, W = half_step(mid)
        vals = mid.values * half
        W_hist.append(W)
    return vals, np.array(W_hist)


_FORMULA_GRIDS = [("periodic", 1, 256), ("dirichlet", 1, 256), ("periodic", 2, 48),
                  ("dirichlet", 2, 40)]


class TestStepFormula:
    """evolve's step, with its work arrays and in-place arithmetic, is the
    Strang step of the plain formulas: at beta = 0.2 in a harmonic well, for
    the identity model (the half-step angle is the potential's alone) and at
    beta = 0.2 without a potential (V_W's alone)."""

    @pytest.mark.parametrize("boundary,dims,points,beta,potential", [
        *(pytest.param(*grid, 0.2, "harmonic", id="-".join(map(str, grid)))
          for grid in _FORMULA_GRIDS),
        *(pytest.param(*grid, 0.0, "harmonic", id="-".join(map(str, grid)) + "-identity")
          for grid in _FORMULA_GRIDS),
        *(pytest.param(*grid, 0.2, "free", id="-".join(map(str, grid)) + "-free")
          for grid in _FORMULA_GRIDS),
    ])
    def test_matches_reference_loop(self, boundary, dims, points, beta, potential):
        g = Grid.centered(8.0, points, dims=dims, boundary=boundary)
        psi0 = gaussian_state(g, 0.9, center=(0.5, -0.3)[:dims],
                              phase_velocity=(0.4, -0.2)[:dims])
        spec = PotentialSpec.harmonic(1.0) if potential == "harmonic" else PotentialSpec.free()
        cfg = EvolutionConfig(dt=1e-3, steps=20, model=DeformationModel.gup(beta), potential=spec)
        traj = evolve(psi0, cfg)
        assert traj.failure is None
        vals, W_hist = _reference_run(psi0, beta, spec, 1e-3, 20)
        psi = traj.psi_final.values
        assert np.max(np.abs(psi - vals)) <= 1e-14 * np.max(np.abs(vals))
        assert traj.W_history.shape == W_hist.shape
        assert np.max(np.abs(traj.W_history - W_hist)) <= 1e-14 * np.max(np.abs(W_hist))

    def test_plane_wave_that_starts_to_act_matches_reference_loop(self):
        """A plane wave in a harmonic well at beta = 0.2: its W is below
        2^-53 at t = 0 and acts from step 1, so the linear run ends at its
        first stacked pass and the run starts again one step at a time.  psi
        is held to the other cases' bound.  W is not: the F of a density this
        close to uniform turns psi's rounding-level difference from the
        reference into 2.5e-13 of W's largest value, so W is held to 1e-12."""
        g = Grid.centered(8.0, 128, boundary="periodic")
        psi0 = plane_wave(g, 2 * math.pi * 3 / 16.0)
        spec = PotentialSpec.harmonic(1.0)
        traj = evolve(psi0, EvolutionConfig(dt=1e-3, steps=20, model=DeformationModel.gup(0.2),
                                            potential=spec))
        assert traj.failure is None
        vals, W_hist = _reference_run(psi0, 0.2, spec, 1e-3, 20)
        psi = traj.psi_final.values
        assert np.max(np.abs(psi - vals)) <= 1e-14 * np.max(np.abs(vals))
        assert traj.W_history.shape == W_hist.shape
        assert np.max(np.abs(traj.W_history - W_hist)) <= 1e-12 * np.max(np.abs(W_hist))

    def test_tabulated_potential_left_unchanged(self):
        """evolve scales the potential into the half-step angle on a copy:
        a tabulated spec hands out its own samples."""
        g = Grid.centered(8.0, 128, boundary="periodic")
        spec = PotentialSpec.tabulated(0.5 * g.axis(0) ** 2)
        before = spec.samples.copy()
        traj = evolve(gaussian_state(g, 0.9), EvolutionConfig(
            dt=1e-3, steps=5, model=DeformationModel.gup(0.2), potential=spec))
        assert traj.failure is None
        assert spec.samples.tobytes() == before.tobytes()
