"""Grids, wavefields, statistical functionals and serialization."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gupnlse import (
    CommensurabilityError,
    DomainError,
    Grid,
    SupportError,
    UnitsConfig,
    ValidationError,
    WaveField,
    ZeroFieldError,
    abs_curvature_ratio,
    density,
    field_stats,
    fisher_information,
    fisher_per_dim,
    gaussian_state,
    integrate,
    load_wavefield,
    momentum_stats,
    normalize,
    plane_wave,
    position_stats,
    rescale_density,
    save_wavefield,
)
from gupnlse.fields import RHO_FLOOR_FRAC

UNITS = UnitsConfig()


def dirichlet_grid(extent=10.4, points=512):
    return Grid.centered(extent, points)


def periodic_grid(half=12.0, points=256):
    return Grid.centered(half, points, boundary="periodic")


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid((8,), (0.1,), (0.0,))  # fewer than 16 points
        with pytest.raises(ValueError):
            Grid((32,) * 4, (0.1,) * 4, (0.0,) * 4)  # 4D unsupported
        with pytest.raises(ValueError):
            Grid((32,), (-0.1,), (0.0,))

    @pytest.mark.parametrize("make", [
        lambda: Grid((32,), (math.nan,), (0.0,)),
        lambda: Grid((32,), (math.inf,), (0.0,)),
        lambda: Grid((32, 32), (0.1, 0.1), (0.0, math.nan)),
        lambda: Grid((32,), (0.1,), (-math.inf,)),
        lambda: Grid.centered(math.nan, 32),
        lambda: Grid.centered(math.inf, 32, boundary="periodic"),
    ], ids=["spacing-nan", "spacing-inf", "origin-nan", "origin-inf", "centered-nan",
            "centered-inf"])
    def test_non_finite_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: Grid((16.9,), (0.1,), (0.0,)),
        lambda: Grid((32, 32.0), (0.1, 0.1), (0.0, 0.0)),
        lambda: Grid.centered(1.0, 16.9),
        lambda: Grid.centered(1.0, 33.5, dims=2),
        lambda: Grid.centered(1.0, (32, np.float64(32.0)), dims=2),
    ], ids=["fraction", "whole-float", "centered", "centered-2d", "centered-numpy-float"])
    def test_point_counts_are_integers(self, make):
        # truncated to 16, 32 and 33 points before
        with pytest.raises(ValidationError, match="integers"):
            make()

    def test_numpy_integer_counts_accepted(self):
        for g in (Grid.centered(1.0, np.int64(32)), Grid((np.int32(20),), (0.1,), (0.0,)),
                  Grid.centered(1.0, np.array([32, 20]), dims=2)):
            assert all(type(n) is int for n in g.points_per_dim)
        assert Grid.centered(1.0, np.array([32, 20]), dims=2).shape == (32, 20)

    def test_far_end_must_be_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # axis(0) warned of an overflow in add
            for make in (lambda: Grid((16,), (1e307,), (1e308,)),
                         lambda: Grid((16, 16), (0.1, 2e307), (0.0, -1.6e308))):
                with pytest.raises(ValidationError, match="far end"):
                    make()
            x = Grid((16,), (1e306,), (1e308,)).axis(0)  # 1.15e308 fits
            assert np.all(np.isfinite(x)) and x[-1] == 1e308 + 15 * 1e306

    def test_centered_dirichlet_includes_endpoints(self):
        g = Grid.centered(5.0, 101)
        x = g.axis(0)
        assert x[0] == -5.0 and x[-1] == pytest.approx(5.0)

    def test_centered_periodic_omits_right_endpoint(self):
        g = periodic_grid(half=5.0, points=100)
        x = g.axis(0)
        assert x[0] == -5.0
        assert x[-1] == pytest.approx(5.0 - g.spacing[0])

    def test_quadrature_weights(self):
        g = dirichlet_grid(points=64)
        w = g.axis_weights(0)
        assert w[0] == w[-1] == g.spacing[0] / 2
        assert integrate(np.ones(64), g) == pytest.approx(2 * 10.4)
        gp = periodic_grid(points=64)
        assert integrate(np.ones(64), gp) == pytest.approx(24.0)


class TestNormalizeDensity:
    def test_gaussian_unit_norm(self):
        g = dirichlet_grid()
        raw = WaveField(g, 3.7 * np.exp(-g.axis(0) ** 2 / 2).astype(complex))
        psi = normalize(raw)
        assert abs(integrate(density(psi), g) - 1.0) <= 1e-10

    def test_idempotent(self):
        g = dirichlet_grid()
        psi = gaussian_state(g, 1.2)
        again = normalize(psi)
        assert np.max(np.abs(again.values - psi.values)) <= 1e-12

    def test_constant_on_periodic_box(self):
        g = periodic_grid(half=8.0, points=128)
        psi = normalize(WaveField(g, np.ones(128, dtype=complex)))
        assert np.max(np.abs(np.abs(psi.values) - 1 / math.sqrt(16.0))) <= 1e-12

    def test_zero_field_error(self):
        g = dirichlet_grid()
        with pytest.raises(ZeroFieldError):
            normalize(WaveField(g, np.zeros(512, dtype=complex)))

    def test_density_plane_wave_constant(self):
        g = periodic_grid(half=8.0, points=128)
        psi = plane_wave(g, 2 * math.pi * 3 / 16.0)
        assert np.max(np.abs(density(psi) - 1 / 16.0)) <= 1e-14

    def test_density_of_zero_field(self):
        g = dirichlet_grid()
        assert np.all(density(WaveField(g, np.zeros(512, complex))) == 0.0)


class TestFisher:
    def test_plane_wave_fisher_zero(self):
        g = periodic_grid(half=8.0, points=128)
        psi = plane_wave(g, 2 * math.pi * 5 / 16.0)
        assert fisher_information(density(psi), 0, g) <= 1e-12

    def test_gaussian_closed_form(self):
        # 512 points spanning +-8 sigma: relative error at most 1e-6
        for sigma in (0.7, 1.0, 2.3):
            g = Grid.centered(8 * sigma, 512)
            psi = gaussian_state(g, sigma)
            F = fisher_information(density(psi), 0, g)
            assert abs(F - 2 / sigma**2) <= 1e-6 * 2 / sigma**2

    def test_rescaled_density_scaling(self):
        g = Grid.centered(14.0, 6144)
        x = g.axis(0)
        rho = 0.6 * np.exp(-((x - 1.1) ** 2) / 1.7) + 0.4 * np.exp(-((x + 2.0) ** 2) / 0.9)
        rho /= integrate(rho, g)
        F = fisher_information(rho, 0, g)
        for kappa in (0.5, 1.5, 2.0):
            Fk = fisher_information(rescale_density(rho, kappa, g), 0, g)
            assert abs(Fk - kappa**2 * F) <= 1e-4 * kappa**2 * F

    def test_quadrature_convergence_second_order(self):
        sigma = 1.0
        errs = []
        for n in (128, 256, 512):
            g = Grid.centered(8 * sigma, n)
            psi = gaussian_state(g, sigma)
            errs.append(abs(fisher_information(density(psi), 0, g) - 2.0))
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] / errs[2] >= 3.5

    def test_product_factorization_2d(self):
        g1 = Grid.centered(9.0, 96)
        psi1 = gaussian_state(g1, 0.9)
        psi2 = gaussian_state(g1, 1.4)
        g2 = Grid.centered(9.0, 96, dims=2)
        prod = WaveField(g2, np.multiply.outer(psi1.values, psi2.values))
        F2 = fisher_per_dim(prod)
        F1a = fisher_information(density(psi1), 0, g1)
        F1b = fisher_information(density(psi2), 0, g1)
        assert abs(F2[0] - F1a) <= 1e-8 * F1a
        assert abs(F2[1] - F1b) <= 1e-8 * F1b

    def test_fisher_of_non_finite_density_raises(self):
        g = dirichlet_grid(points=64)
        rho = density(gaussian_state(g, 1.5))
        for bad in (math.nan, math.inf):
            broken = rho.copy()
            broken[20] = bad
            with pytest.raises(DomainError):
                fisher_information(broken, 0, g)

    @pytest.mark.parametrize("boundary,dims,points", [
        ("periodic", 1, 128), ("dirichlet", 1, 1024), ("periodic", 2, 48),
        ("dirichlet", 2, 40), ("periodic", 3, 16), ("dirichlet", 3, 18),
    ])
    def test_stack_rows_equal_their_own_pass_bitwise(self, boundary, dims, points):
        """Each row of a stacked pass gets its own peak, floor and mask, and
        sums in one density's order: a zero row, a row scaled by 1e-20 and a
        row whose tail lies under the floor included."""
        g = Grid.centered(8.0, points, dims=dims, boundary=boundary)
        rng = np.random.default_rng(11)
        rho = np.abs(rng.normal(size=(6,) + g.shape) + 1j * rng.normal(size=(6,) + g.shape)) ** 2
        rho[1] = 0.0
        rho[2] *= 1e-20
        rho[3] = density(gaussian_state(g, 0.7, center=(1.0, -0.5, 0.3)[:dims]))
        assert np.any(rho[3] < RHO_FLOOR_FRAC * rho[3].max())
        scratch = (np.empty(rho.shape), np.empty(rho.shape), np.empty(rho.shape, dtype=bool))
        for stack in (fisher_per_dim(rho, g), fisher_per_dim(rho, g, scratch=scratch)):
            assert stack.shape == (6, dims)
            for row, r in zip(stack, rho, strict=True):
                assert row.tobytes() == fisher_per_dim(r, g).tobytes()
        assert fisher_per_dim(rho[1], g).tolist() == [0.0] * dims
        rho[4].flat[5] = math.nan
        with pytest.raises(DomainError):
            fisher_per_dim(rho, g)

    @pytest.mark.parametrize("l", [-1, 1])  # a 1D grid's one axis is 0
    def test_axis_outside_the_grid_is_rejected(self, l):
        g = dirichlet_grid(points=64)
        with pytest.raises(ValidationError, match=f"axis index {l} outside"):
            fisher_information(density(gaussian_state(g, 1.5)), l, g)


class TestPositionMomentum:
    def test_centered_gaussian(self):
        g = dirichlet_grid()
        sigma = 1.3
        psi = gaussian_state(g, sigma)
        mean, delta = position_stats(psi)
        assert abs(mean[0]) <= 1e-12
        assert delta[0] == pytest.approx(sigma / math.sqrt(2), rel=1e-8)

    def test_translated_gaussian(self):
        g = dirichlet_grid(extent=14.0, points=768)
        psi = gaussian_state(g, 1.1, center=2.5)
        mean, delta = position_stats(psi)
        assert mean[0] == pytest.approx(2.5, abs=1e-10)
        assert delta[0] == pytest.approx(1.1 / math.sqrt(2), rel=1e-8)

    def test_plane_wave_momentum(self):
        g = periodic_grid(half=8.0, points=128)
        k = 2 * math.pi * 4 / 16.0
        psi = plane_wave(g, k)
        mean, delta = momentum_stats(psi)
        assert mean[0] == pytest.approx(k, rel=1e-12)  # hbar = 1
        assert delta[0] <= 1e-10

    def test_gaussian_momentum_width(self):
        sigma = 1.3
        g = periodic_grid(half=10 * sigma, points=512)
        psi = gaussian_state(g, sigma)
        _, delta = momentum_stats(psi)
        assert delta[0] == pytest.approx(1 / (sigma * math.sqrt(2)), rel=1e-10)
        gd = Grid.centered(8 * sigma, 512)
        _, delta_d = momentum_stats(gaussian_state(gd, sigma))
        assert delta_d[0] == pytest.approx(1 / (sigma * math.sqrt(2)), rel=1e-3)

    def test_boost_shifts_mean_only(self):
        sigma = 1.0
        g = periodic_grid(half=10.0, points=512)
        psi = gaussian_state(g, sigma)
        boosted = gaussian_state(g, sigma, phase_velocity=1.7)
        m0, d0 = momentum_stats(psi)
        m1, d1 = momentum_stats(boosted)
        assert m1[0] - m0[0] == pytest.approx(1.7, rel=1e-9)  # m v with m = 1
        assert d1[0] == pytest.approx(d0[0], rel=1e-9)

    def test_field_stats_identity(self):
        g = dirichlet_grid()
        psi = gaussian_state(g, 1.0)
        s = field_stats(psi)
        # delta_x_small * delta_N_w = hbar/2 by construction
        assert s.delta_x_small[0] * s.delta_N_w[0] == pytest.approx(0.5, rel=1e-12)
        assert s.norm == pytest.approx(1.0, abs=1e-10)
        assert all(np.isfinite(s.delta_x)) and all(np.isfinite(s.delta_p))


class TestRescaleDensity:
    def test_kappa_one_identity(self):
        g = dirichlet_grid()
        rho = density(gaussian_state(g, 1.5))
        assert np.max(np.abs(rescale_density(rho, 1.0, g) - rho)) <= 1e-14

    def test_gaussian_halves_width(self):
        g = Grid.centered(12.0, 8192)
        x = g.axis(0)
        sigma = 1.6
        rho = np.exp(-(x**2) / sigma**2) / (sigma * math.sqrt(math.pi))
        out = rescale_density(rho, 2.0, g)
        expected = 2 * np.exp(-(2 * x) ** 2 / sigma**2) / (sigma * math.sqrt(math.pi))
        assert np.max(np.abs(out - expected)) <= 1e-6  # linear-interp error O(dx^2)

    def test_integral_preserved(self):
        g = Grid.centered(12.0, 4096)
        x = g.axis(0)
        rho = 0.5 * np.exp(-(x**2)) + 0.5 * np.exp(-((x - 1.5) ** 2) / 0.5)
        rho /= integrate(rho, g)
        for kappa in (0.5, 1.5, 2.0):
            out = rescale_density(rho, kappa, g)
            assert abs(integrate(out, g) - 1.0) <= 1e-6

    @pytest.mark.parametrize("points,kappa", [((128, 96), 1.3), ((40, 36, 32), 0.8)])
    def test_multilinear_in_nd(self, points, kappa):
        """In 2D and 3D the axis-by-axis interpolation is scipy's multilinear
        RegularGridInterpolator, with zero outside the grid, to rounding."""
        from scipy.interpolate import RegularGridInterpolator

        g = Grid.centered(6.0, points, dims=len(points))
        sigma = np.linspace(0.7, 1.1, g.dims)
        rho = np.exp(-sum((X - 0.3) ** 2 / s**2 for X, s in zip(g.sparse_axes, sigma)))
        rho /= integrate(rho, g)
        interp = RegularGridInterpolator(g.axes(), rho, bounds_error=False, fill_value=0.0)
        ref = kappa**g.dims * interp(np.stack([kappa * X for X in g.meshgrid()], axis=-1))
        assert np.max(np.abs(rescale_density(rho, kappa, g) - ref)) <= 1e-15 * ref.max()

    def test_support_error(self):
        g = Grid.centered(8.0, 512)
        x = g.axis(0)
        rho = np.exp(-(x**2))
        rho /= integrate(rho, g)
        with pytest.raises(SupportError):
            rescale_density(rho, 0.3, g)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, 0.0, -1.0])
    def test_kappa_positive_and_finite(self, kappa):
        """nan would give an all-nan density and inf numpy's RuntimeWarning:
        both are rejected before any interpolation, as 0 and -1 are."""
        g = dirichlet_grid()
        rho = density(gaussian_state(g, 1.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="kappa must be positive and finite"):
                rescale_density(rho, kappa, g)


class TestCurvatureRatio:
    def test_plane_wave_zero(self):
        g = periodic_grid(half=8.0, points=128)
        psi = plane_wave(g, 2 * math.pi * 2 / 16.0)
        assert np.max(np.abs(abs_curvature_ratio(psi, 0))) <= 1e-9

    def test_gaussian_pointwise(self):
        sigma = 1.2
        g = Grid.centered(8 * sigma, 1024)
        psi = gaussian_state(g, sigma)
        r = abs_curvature_ratio(psi, 0)
        x = g.axis(0)
        expected = x**2 / sigma**4 - 1 / sigma**2
        inner = np.abs(x) <= 4 * sigma
        dx = g.spacing[0]
        assert np.max(np.abs(r - expected)[inner]) <= 5 * dx**2 / sigma**4 * (16 / sigma**2)

    def test_phase_invariance(self):
        g = dirichlet_grid()
        x = g.axis(0)
        psi = gaussian_state(g, 1.0)
        phase = np.exp(1j * (0.8 * np.sin(0.7 * x) + 0.3 * x))
        twisted = psi.with_values(psi.values * phase)
        r0 = abs_curvature_ratio(psi, 0)
        r1 = abs_curvature_ratio(twisted, 0)
        # |a e^{i theta}| agrees with a only to rounding
        assert np.max(np.abs(r1 - r0)) <= 1e-8 * np.max(np.abs(r0))

    @pytest.mark.parametrize("l", [-1, 1])  # a 1D grid's one axis is 0
    def test_axis_outside_the_grid_is_rejected(self, l):
        psi = gaussian_state(dirichlet_grid(points=64), 1.5)
        with pytest.raises(ValidationError, match=f"axis index {l} outside"):
            abs_curvature_ratio(psi, l)


class TestStateFactories:
    def test_gaussian_needs_six_sigma(self):
        g = Grid.centered(5.0, 64)
        with pytest.raises(SupportError):
            gaussian_state(g, 1.0)  # 5 < 6 sigma

    @pytest.mark.parametrize("sigma,center", [
        (math.nan, None), (math.inf, None), (1.0, math.nan), (1.0, math.inf),
        ((1.0, math.nan), None), (1.0, (0.0, -math.inf)),
    ])
    def test_gaussian_non_finite_rejected(self, sigma, center):
        g = Grid.centered(8.0, 32, dims=2)
        with pytest.raises(ValueError, match="finite"):
            gaussian_state(g, sigma, center=center)

    def test_gaussian_unresolved_on_huge_grid(self):
        # (x - c)^2 overflows to inf at |x| = 1e155: every sample is exp(-inf)
        # = 0, reported as a zero field and not first as a numpy warning
        g = Grid.centered(1e155, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroFieldError):
                gaussian_state(g, 1.0)

    def test_plane_wave_commensurability(self):
        g = periodic_grid(half=8.0, points=128)
        with pytest.raises(CommensurabilityError):
            plane_wave(g, 1.0)  # 16/(2 pi) wavelengths: not an integer
        with pytest.raises(CommensurabilityError):
            plane_wave(dirichlet_grid(), 1.0)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, (1.0, math.nan)],
                             ids=["nan", "inf", "-inf", "2d-nan"])
    def test_plane_wave_non_finite_k(self, k):
        """A nan or infinite component is a ValidationError, not round()'s
        bare ValueError or OverflowError."""
        g = periodic_grid(half=8.0, points=128) if np.ndim(k) == 0 else Grid.centered(
            8.0, 16, dims=2, boundary="periodic")
        with pytest.raises(ValidationError, match="k must be finite"):
            plane_wave(g, k)

    def test_gaussian_2d_product_structure(self):
        g = Grid.centered(9.0, 64, dims=2)
        psi = gaussian_state(g, 1.1)
        s = field_stats(psi)
        assert s.delta_x[0] == pytest.approx(1.1 / math.sqrt(2), rel=1e-6)
        assert s.delta_x[1] == pytest.approx(1.1 / math.sqrt(2), rel=1e-6)


class TestPhaseInvarianceProperties:
    @given(
        a=st.floats(-1.0, 1.0),
        b=st.floats(-1.0, 1.0),
        freq=st.floats(0.1, 1.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_functionals_depend_on_modulus_only(self, a, b, freq):
        g = Grid.centered(10.0, 256)
        x = g.axis(0)
        psi = gaussian_state(g, 1.1)
        twisted = psi.with_values(psi.values * np.exp(1j * (a * np.sin(freq * x) + b * x)))
        assert fisher_per_dim(twisted)[0] == pytest.approx(fisher_per_dim(psi)[0], rel=1e-12)
        m0, d0 = position_stats(psi)
        m1, d1 = position_stats(twisted)
        assert m1[0] == pytest.approx(m0[0], abs=1e-12)
        assert d1[0] == pytest.approx(d0[0], rel=1e-12)

    @given(
        w1=st.floats(0.2, 0.8),
        s1=st.floats(0.6, 1.4),
        s2=st.floats(0.6, 1.4),
        gap=st.floats(0.0, 3.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_cramer_rao_for_mixtures(self, w1, s1, s2, gap):
        g = Grid.centered(16.0, 1024)
        x = g.axis(0)
        rho = w1 * np.exp(-((x - gap / 2) ** 2) / s1**2) + (1 - w1) * np.exp(
            -((x + gap / 2) ** 2) / s2**2
        )
        rho /= integrate(rho, g)
        F = fisher_information(rho, 0, g)
        mean = integrate(x * rho, g)
        var = integrate((x - mean) ** 2 * rho, g)
        assert var * F >= 1 - 1e-6


class TestSerialization:
    def test_roundtrip_bit_exact_header(self, tmp_path):
        g = Grid((48,), (0.1234567890123456,), (-2.962962962962963,), "dirichlet")
        psi = gaussian_state(g, 0.37)
        csv = tmp_path / "psi.csv"
        hdr = tmp_path / "psi_grid.json"
        save_wavefield(psi, csv, hdr)
        loaded = load_wavefield(csv, hdr)
        assert loaded.grid == g  # float fields compare exactly
        with open(hdr) as fh:
            stored = json.load(fh)
        assert stored["spacing"][0] == g.spacing[0]
        assert stored["origin"][0] == g.origin[0]

    def test_roundtrip_values_exact(self, tmp_path):
        g = periodic_grid(half=6.0, points=64)
        psi = plane_wave(g, 2 * math.pi * 3 / 12.0)
        save_wavefield(psi, tmp_path / "a.csv", tmp_path / "a.json")
        loaded = load_wavefield(tmp_path / "a.csv", tmp_path / "a.json")
        # 17 significant digits round-trip float64 exactly
        assert np.array_equal(loaded.values, psi.values)

    def test_csv_header_row(self, tmp_path):
        g = dirichlet_grid(points=32)
        psi = gaussian_state(g, 1.5)
        save_wavefield(psi, tmp_path / "b.csv", tmp_path / "b.json")
        first = (tmp_path / "b.csv").read_text().splitlines()[0]
        assert first == "x0,re_psi,im_psi"

    @pytest.mark.parametrize("dims", [1, 2])
    def test_wavefield_bytes_match_csv_writer(self, tmp_path, dims):
        """save_wavefield writes what _write_csv writes for the coordinate
        and sample columns, and the grid header and units as indented JSON."""
        from gupnlse.fields import _write_csv

        g = Grid((17, 16)[:dims], (0.1234567890123456, 0.3)[:dims],
                 (-1.0000000000000002, -2.4)[:dims], "dirichlet")
        rng = np.random.default_rng(dims)
        values = (rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)).ravel()
        values[:3] = [complex(-0.0, 1e-300), complex(5e-324, -0.0), complex(1e-300, -5e-324)]
        units = UnitsConfig(hbar=0.7, mass=1.3)
        psi = WaveField(g, values.reshape(g.shape), units)
        save_wavefield(psi, tmp_path / "psi.csv", tmp_path / "psi.json")
        names = [f"x{l}" for l in range(dims)] + ["re_psi", "im_psi"]
        _write_csv(tmp_path / "ref.csv", names,
                   [X.ravel() for X in g.meshgrid()] + [values.real, values.imag])
        assert (tmp_path / "psi.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        header = dict(g.header(), hbar=units.hbar, mass=units.mass)
        assert (tmp_path / "psi.json").read_text() == json.dumps(header, indent=2) + "\n"

    def test_save_density(self, tmp_path):
        from gupnlse import save_density

        g = dirichlet_grid(points=32)
        rho = density(gaussian_state(g, 1.5))
        save_density(rho, g, tmp_path / "rho.csv", tmp_path / "rho.json")
        lines = (tmp_path / "rho.csv").read_text().splitlines()
        assert lines[0] == "x0,rho"
        assert len(lines) == 33
        with open(tmp_path / "rho.json") as fh:
            assert Grid.from_header(json.load(fh)) == g


def _ref_neighbours(f, l, boundary):
    """np.roll shifts with the wrapped entries zeroed on dirichlet grids."""
    up, dn = np.roll(f, -1, axis=l), np.roll(f, 1, axis=l)
    if boundary == "dirichlet":
        idx = [slice(None)] * f.ndim
        idx[l] = -1
        up[tuple(idx)] = 0.0
        idx[l] = 0
        dn[tuple(idx)] = 0.0
    return up, dn


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


class TestComplexByReal:
    """Complex arrays divided by a real c are scaled on their float view by
    1/c: numpy's complex division by c + 0j gives the same values."""

    @pytest.mark.parametrize("c", [0.1, 0.125, 3.7e-5, 7.0, 1e-300, 1e300])
    def test_float_view_equals_complex_division(self, c):
        from gupnlse.fields import _divide_complex

        rng = np.random.default_rng(7)
        z = rng.normal(size=(8, 1024)) + 1j * rng.normal(size=(8, 1024))
        z[0, :4] = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, 1.0)]
        want = z / c
        assert _divide_complex(z, c) is z
        assert np.array_equal(z, want)

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_diff1_and_normalize(self, boundary):
        from gupnlse.fields import _diff1, _stencil

        g = Grid.centered(5.0, (16, 21), dims=2, boundary=boundary)
        rng = np.random.default_rng(3)
        f = rng.normal(size=(3,) + g.shape) + 1j * rng.normal(size=(3,) + g.shape)
        for l in range(g.dims):
            want = _stencil(f, g, l, np.empty_like(f)) / (2 * g.spacing[l])
            assert np.array_equal(_diff1(f, g, l), want)
            assert np.array_equal(_diff1(f, g, l, np.empty_like(f)), want)
        psi = WaveField(g, f[0])
        assert np.array_equal(normalize(psi).values, psi.values / psi.norm())
        # a state whose samples are not contiguous is scaled on a contiguous copy
        view = WaveField(g, f[0].T.copy().T)
        assert np.array_equal(normalize(view).values, view.values / view.norm())


class TestStencilLayer:
    @given(
        dims=st.integers(1, 3),
        boundary=st.sampled_from(["dirichlet", "periodic"]),
        is_complex=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_roll_reference_bitwise(self, dims, boundary, is_complex, seed, data):
        from gupnlse import PotentialSpec, build_hamiltonian
        from gupnlse.fields import _diff1, _diff2

        points = data.draw(st.tuples(*[st.integers(16, 21)] * dims))
        extent = data.draw(st.tuples(*[st.floats(0.5, 20.0)] * dims))
        g = Grid.centered(extent, points, dims=dims, boundary=boundary)
        rng = np.random.default_rng(seed)
        f = rng.normal(size=g.shape)
        if is_complex:
            f = f + 1j * rng.normal(size=g.shape)
        W = rng.uniform(0.0, 2.0, size=dims)
        H = build_hamiltonian(g, PotentialSpec.harmonic(1.3), W, UNITS)
        ref_H = H.potential_values * f
        for l in range(dims):
            d = g.spacing[l]
            up, dn = _ref_neighbours(f, l, boundary)
            assert _bits(_diff1(f, g, l)) == _bits((up - dn) / (2 * d))
            assert _bits(_diff2(f, g, l)) == _bits((up - 2 * f + dn) / d**2)
            coef = (1.0 + H.W_params[l]) * UNITS.hbar**2 / (2 * UNITS.mass * d**2)
            ref_H = ref_H + coef * (2 * f - up - dn)
        assert _bits(H.matvec(f)) == _bits(ref_H)

    @pytest.mark.parametrize("is_complex", [False, True], ids=["float", "complex"])
    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_flat_offsets_match_slices_bitwise(self, dims, boundary, is_complex):
        """Off an array's leading axis _stencil runs C-contiguous operands on
        flat offset views, and a Fortran-ordered copy on slices: every axis
        of a state and of a stack of states gives the same bits both ways,
        for the plain stencil and the second difference."""
        from gupnlse.fields import _stencil

        g = Grid.centered(5.0, (16, 17, 18)[:dims], dims=dims, boundary=boundary)
        rng = np.random.default_rng(dims)

        def stencil(f, l, variant):
            out = np.empty_like(f)  # f's memory order
            return _stencil(f, g, l, out, second=variant == "second")

        for shape in (g.shape, (5,) + g.shape):
            f = rng.normal(size=shape)
            if is_complex:
                f = f + 1j * rng.normal(size=shape)
            fortran = np.asfortranarray(f)
            for l in range(dims):
                for variant in ("plain", "second"):
                    flat, sliced = stencil(f, l, variant), stencil(fortran, l, variant)
                    assert flat.flags.c_contiguous
                    assert flat.tobytes() == np.ascontiguousarray(sliced).tobytes(), (
                        shape, l, variant)

    @pytest.mark.parametrize("variant", ["plain", "second"])
    def test_second_axis_allocates_less_than_a_grid_array(self, variant):
        """numpy's buffered iterator took three 8192-element buffers per
        ufunc call here; the flat offsets need none."""
        import tracemalloc

        from gupnlse.fields import _stencil

        g = Grid.centered(12.0, 128, dims=2, boundary="periodic")
        f = np.random.default_rng(0).random(g.shape)
        out = np.empty_like(f)
        second = variant == "second"
        _stencil(f, g, 1, out, second=second)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _stencil(f, g, 1, out, second=second)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < f.nbytes


def _stats_bits(s):
    return np.array([s.norm, *s.mean_x, *s.delta_x, *s.mean_p, *s.delta_p,
                     *s.fisher, *s.delta_x_small, *s.delta_N_w]).tobytes()


class TestBlockStats:
    @given(
        dims=st.integers(1, 3),
        boundary=st.sampled_from(["dirichlet", "periodic"]),
        rows=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_match_one_row_path_bitwise(self, dims, boundary, rows, seed, data):
        from gupnlse.fields import _field_stats

        points = data.draw(st.tuples(*[st.integers(16, 21)] * dims))
        extent = data.draw(st.tuples(*[st.floats(0.5, 20.0)] * dims))
        g = Grid.centered(extent, points, dims=dims, boundary=boundary)
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(rows,) + g.shape) + 1j * rng.normal(size=(rows,) + g.shape)
        rho = np.abs(stack) ** 2
        F = [fisher_per_dim(r, g) for r in rho]
        block = _field_stats(stack, rho, g, UNITS, F)
        assert len(block) == rows
        for i in range(rows):
            psi = WaveField(g, stack[i], UNITS)
            assert _stats_bits(block[i]) == _stats_bits(field_stats(psi))
            assert position_stats(psi) == (list(block[i].mean_x), list(block[i].delta_x))
            assert momentum_stats(psi) == (list(block[i].mean_p), list(block[i].delta_p))


class TestMarginalMoments:
    @given(
        dims=st.integers(1, 3),
        boundary=st.sampled_from(["dirichlet", "periodic"]),
        rows=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_match_direct_moments(self, dims, boundary, rows, seed, data):
        """The moments of each axis's marginal are those of the whole grid:
        int x rho w / int rho w and int (x - m)^2 rho w / int rho w.  A mean
        is compared on the scale of int |x| rho w / int rho w, since it may
        cancel to nearly zero."""
        from gupnlse.fields import _grid_sum, _position_stats

        points = data.draw(st.tuples(*[st.integers(16, 40)] * dims))
        spacing = data.draw(st.tuples(*[st.floats(0.01, 2.0)] * dims))
        origin = data.draw(st.tuples(*[st.floats(-50.0, 50.0)] * dims))
        g = Grid(points, spacing, origin, boundary)
        rng = np.random.default_rng(seed)
        rho_w = rng.random((rows,) + g.shape) * g.quad_weights()
        means, deltas = _position_stats(rho_w, g, _grid_sum(rho_w))
        for i, row in enumerate(rho_w):
            total = np.sum(row)
            for l, X in enumerate(g.sparse_axes):
                m = np.sum(X * row) / total
                var = np.sum((X - m) ** 2 * row) / total
                assert abs(means[i][l] - m) <= 1e-14 * np.sum(np.abs(X) * row) / total
                assert abs(deltas[i][l] - math.sqrt(var)) <= 1e-14 * math.sqrt(var)


class TestGridCaches:
    @pytest.mark.parametrize("dims", [1, 2, 3])
    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_quad_weights_read_only_outer_product(self, dims, boundary):
        g = Grid.centered(3.0, (16, 17, 18)[:dims], dims=dims, boundary=boundary)
        w = g.quad_weights()
        assert w is g.quad_weights()
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[(0,) * dims] = 1.0
        ref = g.axis_weights(0)
        for l in range(1, dims):
            ref = np.multiply.outer(ref, g.axis_weights(l))
        assert w.shape == g.shape and np.array_equal(w, ref)

    def test_sparse_axes_broadcast_read_only(self):
        g = Grid.centered(3.0, (16, 20, 24), dims=3)
        axes = g.sparse_axes
        assert [x.shape for x in axes] == [(16, 1, 1), (1, 20, 1), (1, 1, 24)]
        for l, x in enumerate(axes):
            assert not x.flags.writeable
            assert np.array_equal(x.ravel(), g.axis(l))

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_wavenumbers_read_only_fftfreq(self, boundary):
        g = Grid.centered((3.0, 5.0), (16, 21), dims=2, boundary=boundary)
        ks = g.wavenumbers
        assert ks is g.wavenumbers and len(ks) == 2
        for l, k in enumerate(ks):
            assert not k.flags.writeable
            ref = 2 * np.pi * np.fft.fftfreq(g.points_per_dim[l], g.spacing[l])
            assert k.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("rows", [0, 8])
    @pytest.mark.parametrize("n", [16, 17, 128, 1024])
    def test_1d_transforms_are_np_fft_bitwise(self, n, rows):
        """In 1D the grid's transforms are the gufuncs np.fft.fft and ifft
        call, along the last axis, on one state and on a stack of rows."""
        g = Grid.centered(3.0, n, boundary="periodic")
        shape = (rows, n) if rows else (n,)
        rng = np.random.default_rng(n)
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for transform, ref in zip(g.transforms, (np.fft.fft, np.fft.ifft), strict=True):
            out = np.empty_like(a)
            assert transform(a, out=out) is out
            assert out.tobytes() == ref(a).tobytes()

    @pytest.mark.parametrize("rows", [0, 5])
    @pytest.mark.parametrize("shape", [(128, 128), (48, 30), (16, 17, 18), (32, 32, 32)])
    def test_nd_transforms_are_np_fft_fftn_bitwise(self, shape, rows):
        """In 2D and 3D the grid's transforms are np.fft.fftn and ifftn over
        the trailing axes, on one state and on a stack of rows."""
        g = Grid.centered(3.0, shape, dims=len(shape), boundary="periodic")
        full = ((rows,) if rows else ()) + shape
        rng = np.random.default_rng(len(shape) + rows)
        a = rng.normal(size=full) + 1j * rng.normal(size=full)
        axes = tuple(range(-g.dims, 0))
        for transform, ref in zip(g.transforms, (np.fft.fftn, np.fft.ifftn), strict=True):
            out = np.empty_like(a)
            assert transform(a, out=out) is out
            assert out.tobytes() == ref(a, axes=axes).tobytes()

    @pytest.mark.parametrize("shape", [(128,), (48, 30), (16, 17, 18)])
    def test_stacked_transforms_are_per_row_bitwise(self, shape):
        """A stack of rows transformed at once gives each row's own
        transform, bit for bit: evolve transforms a free ring's pending rows
        together and a snapshot's row alone."""
        g = Grid.centered(3.0, shape, dims=len(shape), boundary="periodic")
        rng = np.random.default_rng(len(shape))
        a = rng.normal(size=(7, *shape)) + 1j * rng.normal(size=(7, *shape))
        for transform in g.transforms:
            stacked, row = np.empty_like(a), np.empty(shape, complex)
            transform(a[2:6], out=stacked[2:6])
            for i in range(2, 6):
                assert stacked[i].tobytes() == transform(a[i], out=row).tobytes(), i

    def test_equality_and_hash_ignore_caches(self):
        a = Grid.centered(3.0, 32, dims=2)
        b = Grid.centered(3.0, 32, dims=2)
        a.quad_weights()
        a.sparse_axes
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.points_per_dim, a.spacing, a.origin, a.boundary))
        assert a != Grid.centered(3.0, 32, dims=2, boundary="periodic")
        assert len({a, b}) == 1

    def test_meshgrid_fresh_dense_writable(self):
        g = Grid.centered(3.0, (16, 20), dims=2)
        X, Y = g.meshgrid()
        assert X.shape == Y.shape == g.shape
        assert X.flags.writeable and Y.flags.writeable
        X[0, 0] = 99.0
        X2, _ = g.meshgrid()
        assert X2 is not X and X2[0, 0] == g.axis(0)[0]


def _fstring_write_csv(path, names, columns):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


class TestCsvWriter:
    def test_byte_identical_to_fstring_writer(self, tmp_path):
        from gupnlse.fields import _write_csv

        special = np.array([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324,
                            2.2250738585072014e-308 / 3, 1e300, -1e-300, 1 / 3, -2.5])
        n = len(special)
        columns = [
            special,
            special[::-1].copy(),
            np.arange(-5, n - 5, dtype=np.int64) * 10**15,
            list(range(n)),
            np.linspace(-1e-12, 7.0, n),
        ]
        names = ["a", "b", "c", "d", "e"]
        _write_csv(tmp_path / "new.csv", names, columns)
        _fstring_write_csv(tmp_path / "old.csv", names, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
