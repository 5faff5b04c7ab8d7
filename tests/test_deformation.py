"""Deformation function, its inverse, and the induced nonlinearity W."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gupnlse import (
    DeformationModel,
    DomainError,
    UnitsConfig,
    W_eval,
    physical_beta,
    scaling_transform,
    w_eval,
    w_inverse,
    z_of_W,
)

GUP1 = DeformationModel.gup(1.0)
IDENT = DeformationModel.identity()


def bisect_w_root(target, model, lo=0.0, hi=None):
    """Independent root-finder for w(z) = target on the increasing branch."""
    hi = hi if hi is not None else model.z_max_w
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if w_eval(mid, model) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def w_definitional_fd(z, model, rel_step=1e-4):
    """Central finite difference of d/dz [w^-1(sqrt(z))]^2 - 1."""
    h = rel_step * z
    g = lambda t: w_inverse(math.sqrt(t), model) ** 2
    return (g(z + h) - g(z - h)) / (2 * h) - 1.0


class TestW:
    def test_w_at_zero(self):
        assert w_eval(0.0, GUP1) == 0.0
        assert w_eval(0.0, IDENT) == 0.0

    def test_w_gup_direct(self):
        assert w_eval(1.0, GUP1) == pytest.approx(0.5, abs=1e-15)

    def test_w_identity(self):
        z = np.linspace(0, 50, 11)
        assert np.array_equal(w_eval(z, IDENT), z)

    def test_w_below_argument(self):
        z = np.linspace(1e-3, GUP1.z_max_w, 50)
        assert np.all(w_eval(z, GUP1) < z)

    def test_w_slope_one_at_origin(self):
        for h in (1e-4, 1e-6, 1e-8):
            assert abs(w_eval(h, GUP1) / h - 1.0) < 2 * h**2

    def test_w_domain_error(self):
        with pytest.raises(DomainError):
            w_eval(1.001 * GUP1.z_max_w, GUP1)
        with pytest.raises(DomainError):
            w_eval(-0.1, GUP1)

    def test_branch_bounds(self):
        m = DeformationModel.gup(0.25)
        assert m.z_max_w == pytest.approx(2.0)
        assert m.z_max_W == pytest.approx(1.0)
        assert IDENT.z_max_w == math.inf


class TestWInverse:
    def test_origin(self):
        assert w_inverse(0.0, GUP1) == 0.0

    def test_direct(self):
        assert w_inverse(0.5, GUP1) == pytest.approx(1.0, abs=1e-14)

    def test_identity(self):
        y = np.linspace(0, 7, 13)
        assert np.array_equal(w_inverse(y, IDENT), y)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            w_inverse(0.5001, GUP1)  # branch maximum is 1/(2 sqrt(beta)) = 0.5

    @given(
        beta=st.floats(1e-4, 1e2),
        frac=st.floats(1e-12, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, beta, frac):
        model = DeformationModel.gup(beta)
        z = frac * model.z_max_w
        y = w_eval(z, model)
        assert abs(w_eval(w_inverse(y, model), model) - y) <= 1e-12 * max(1.0, y)
        if frac <= 0.99:  # z-recovery is ill-conditioned at the branch top (w' -> 0)
            assert abs(w_inverse(y, model) - z) <= 1e-9 * max(1.0, z)


class TestBigW:
    def test_identity_zero(self):
        z = np.linspace(0, 100, 7)
        assert np.all(W_eval(z, IDENT) == 0.0)

    def test_limit_at_zero(self):
        assert W_eval(0.0, GUP1) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_value_at_eighth(self):
        # direct evaluation at beta z = 1/8
        assert W_eval(0.125, GUP1) == pytest.approx(0.9411254969542812, abs=1e-12)
        m = DeformationModel.gup(0.03)
        assert W_eval(1 / (8 * 0.03), m) == pytest.approx(0.9411254969542812, rel=1e-12)

    def test_small_z_linear_law(self):
        for beta in (1e-3, 1.0, 50.0):
            m = DeformationModel.gup(beta)
            for bz in np.logspace(-12, -3, 30):
                z = bz / beta
                W = W_eval(z, m)
                assert abs(W / (4 * beta * z) - 1.0) <= 5 * beta * z + 1e-15

    def test_domain_error_at_edge(self):
        with pytest.raises(DomainError):
            W_eval(0.25, GUP1)  # the boundary itself is excluded
        with pytest.raises(DomainError):
            W_eval(0.3, GUP1)

    def test_monotone_increasing(self):
        z = np.linspace(0, 0.2499, 400)
        W = W_eval(z, GUP1)
        assert np.all(np.diff(W) > 0)

    def test_nonnegative_on_domain(self):
        z = np.logspace(-8, np.log10(0.2499), 100)
        assert np.all(W_eval(z, GUP1) >= 0)

    @pytest.mark.parametrize("beta", [1e-2, 1.0, 30.0])
    def test_matches_definitional_finite_difference(self, beta):
        # W must agree with the derivative form it is defined by
        model = DeformationModel.gup(beta)
        z_hi = 0.9 * model.z_max_W
        for z in np.logspace(math.log10(z_hi) - 3, math.log10(z_hi), 100):
            closed = W_eval(z, model)
            fd = w_definitional_fd(z, model)
            assert abs(fd - closed) <= 1e-6 * max(abs(closed), 1e-12)


def _W_vectorized(z, model):
    """The array formula W_eval used before it went element by element; the
    reference its results must match bit for bit."""
    z = np.asarray(z, dtype=float)
    u = model.beta * z
    s = np.sqrt(1.0 - 4.0 * u)
    closed = 4.0 / (s * (1.0 + s) ** 2) - 1.0
    series = u * (4.0 + u * (15.0 + u * (56.0 + 210.0 * u)))
    return np.where(u < 1e-4, series, closed)


class TestBigWElementwise:
    @pytest.mark.parametrize("beta", [1e-6, 1e-2, 0.2, 1.0, 3.7, 123.0])
    def test_bit_identical_to_vectorized_formula(self, beta):
        model = DeformationModel.gup(beta)
        rng = np.random.default_rng(7)
        u = np.concatenate([
            [0.0, 5e-324, 1e-300, 1e-12],
            rng.uniform(0.0, 0.2499, 3000),
            10.0 ** rng.uniform(-12, math.log10(0.2499), 3000),
            # both sides of the switch to the series at u = 1e-4
            1e-4 * (1.0 + np.arange(-40, 41) * np.finfo(float).eps),
            1e-4 * rng.uniform(0.9, 1.1, 500),
        ])
        z = u / beta
        z = z[z < model.z_max_W]
        ref = _W_vectorized(z, model)
        got = W_eval(z, model)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        # 2D arrays keep their shape; scalars come back as Python floats
        assert W_eval(z[:60].reshape(3, 20), model).tobytes() == ref[:60].tobytes()
        for zi, wi in zip(z[::50].tolist(), ref[::50].tolist()):
            out = W_eval(zi, model)
            assert type(out) is float and out == wi

    def test_identity_zeros_keep_shape(self):
        assert W_eval(3.0, IDENT) == 0.0 and type(W_eval(3.0, IDENT)) is float
        assert W_eval(np.ones((2, 3)), IDENT).shape == (2, 3)


def _W_reference(z, beta):
    """W(z) written without cancellation: with s = sqrt(1 - 4u), u = beta z,
    and t = 1 - s = 4u / (1 + s), 4 / (s (1+s)^2) - 1 = t (8 - 5t + t^2) / (s (2-t)^2)."""
    u = beta * z
    s = math.sqrt(1.0 - 4.0 * u)
    t = 4.0 * u / (1.0 + s)
    return t * (8.0 - t * (5.0 - t)) / (s * (2.0 - t) ** 2)


class TestZOfW:
    @pytest.mark.parametrize("beta", [1e-6, 1e-2, 0.2, 1.0, 3.7, 123.0])
    def test_inverts_W(self, beta):
        # the reference W is free of cancellation, so the round trip measures
        # z_of_W alone; W_eval itself loses up to ~1e-12 relative just above
        # its switch to the series at u = 1e-4
        model = DeformationModel.gup(beta)
        z = np.geomspace(1e-12, (1 - 1e-9) * model.z_max_W, 2000)
        back = np.array([z_of_W(_W_reference(zi, beta), model) for zi in z])
        assert np.max(np.abs(back - z) / z) <= 1e-13
        assert np.all(np.diff(back) > 0)

    def test_matches_W_eval_where_it_is_accurate(self):
        for z in (0.01, 0.1, 0.2, 0.249):
            assert z_of_W(W_eval(z, GUP1), GUP1) == pytest.approx(z, rel=1e-13)

    def test_zero_and_large_W(self):
        assert z_of_W(0.0, GUP1) == 0.0 and z_of_W(0.0, IDENT) == 0.0
        # 1/(4 beta) - z falls as 1/W^2: past W ~ 1e8 it rounds to the edge
        assert z_of_W(1e6, GUP1) < GUP1.z_max_W
        assert z_of_W(1e15, GUP1) == GUP1.z_max_W

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_outside_domain(self, bad):
        with pytest.raises(DomainError):
            z_of_W(bad, GUP1)

    def test_identity_model_has_no_inverse_above_zero(self):
        with pytest.raises(DomainError, match="identity"):
            z_of_W(0.5, IDENT)


class TestNonFinite:
    @pytest.mark.parametrize("model", [IDENT, GUP1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_domain_checks_reject_non_finite(self, model, bad):
        with pytest.raises(DomainError):
            W_eval(bad, model)
        with pytest.raises(DomainError):
            W_eval(np.array([0.01, bad, 0.02]), model)
        with pytest.raises(DomainError):
            w_eval(bad, model)
        with pytest.raises(DomainError):
            w_inverse(bad, model)


class TestScalingTransform:
    def test_kappa_one_is_identity(self):
        for model in (IDENT, GUP1, DeformationModel.gup(0.01)):
            for dN in (0.0, 0.3, 0.9):
                assert scaling_transform(dN, 1.0, model) == pytest.approx(dN, abs=1e-14)

    def test_identity_model_is_linear(self):
        assert scaling_transform(0.7, 3.0, IDENT) == pytest.approx(2.1, abs=1e-14)

    def test_gup_against_bisection_oracle(self):
        model = DeformationModel.gup(0.01)
        target = 2.0 * w_eval(1.0, model)
        expected = bisect_w_root(target, model)
        assert scaling_transform(1.0, 2.0, model) == pytest.approx(expected, rel=1e-10)

    def test_domain_error_when_target_leaves_branch(self):
        model = DeformationModel.gup(1.0)
        # w max is 0.5; kappa * w(0.9) > 0.5
        with pytest.raises(DomainError):
            scaling_transform(0.9, 2.0, model)

    @given(
        beta=st.floats(1e-3, 10.0),
        frac=st.floats(1e-6, 0.99),
        kappa=st.floats(1.0001, 50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_superlinear_growth(self, beta, frac, kappa):
        model = DeformationModel.gup(beta)
        dN = frac * model.z_max_w
        if kappa * w_eval(dN, model) >= 0.5 / math.sqrt(beta):
            return  # target leaves the branch; nothing to compare
        out = scaling_transform(dN, kappa, model)
        assert out >= kappa * dN * (1 - 1e-14)
        if beta * dN**2 * (kappa**2 - 1) > 1e-12:  # excess resolvable in float64
            assert out > kappa * dN


class TestUnits:
    def test_C_definition(self):
        assert UnitsConfig().C == 0.25
        assert UnitsConfig(hbar=2.0).C == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            UnitsConfig(hbar=0.0)

    def test_physical_beta(self):
        assert physical_beta(1.0, 2.0, 1.0) == 4.0
        assert physical_beta(0.5, 3.0, 2.0) == pytest.approx(0.5 * 9 / 4)


class TestModelValidation:
    def test_identity_is_gup_at_zero_beta(self):
        assert DeformationModel.identity() == DeformationModel.gup(0.0)
        assert DeformationModel.identity().kind == DeformationModel.gup(0.0).kind == "identity"
        assert DeformationModel.gup(0.3).kind == "gup"

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta(self, beta):
        with pytest.raises(ValueError):
            DeformationModel.gup(beta)

    def test_negative_beta(self):
        with pytest.raises(ValueError):
            DeformationModel.gup(-1.0)

    def test_gup_zero_beta_degenerates(self):
        m = DeformationModel.gup(0.0)
        z = np.linspace(0, 5, 11)
        assert np.array_equal(w_eval(z, m), z)
        assert np.all(W_eval(z, m) == 0.0)
