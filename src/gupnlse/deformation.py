"""Deformation of the momentum-fluctuation scaling law and the induced nonlinearity.

The model is the pair (w, w^-1) of an increasing deformation function and its
inverse on the increasing branch, together with the induced dimensionless
function

    W(z) = d/dz [w^-1(sqrt(z))]^2 - 1,

which multiplies the extra |psi|^-1 d^2|psi| term of the modified wave
equation.  The deformation is the gravitationally motivated form
w(z) = z / (1 + beta z^2), for which W has the closed form implemented in
:func:`W_eval`; beta = 0 is the undeformed theory (w the identity, W = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

@dataclass(frozen=True)
class UnitsConfig:
    """Working units; defaults are hbar = m = 1."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (0 < self.hbar < math.inf and 0 < self.mass < math.inf):  # nan fails too
            raise ValidationError("hbar and mass must be positive and finite")

    @property
    def C(self) -> float:
        """Coefficient hbar^2 / 4 linking Fisher information to squared
        fluctuations; ValidationError when hbar^2 overflows."""
        try:
            return self.hbar**2 / 4.0
        except OverflowError:  # Python's float ** raises, not inf
            raise ValidationError(
                f"hbar^2 overflows double precision at hbar = {self.hbar:g}") from None


@dataclass(frozen=True)
class DeformationModel:
    """The deformation w(z) = z / (1 + beta z^2), its inverse and validity bounds.

    Attributes
    ----------
    beta : float
        Deformation strength (inverse momentum squared in working units).
        beta = 0 is the undeformed theory, w(z) = z and W = 0.
    """

    beta: float = 0.0

    def __post_init__(self):
        # a negated test, so that nan and inf fail it as well as negative numbers
        if not 0.0 <= self.beta < math.inf:
            raise ValidationError("beta must be nonnegative and finite")
        object.__setattr__(self, "beta", float(self.beta))

    @classmethod
    def identity(cls) -> "DeformationModel":
        return cls(0.0)

    @classmethod
    def gup(cls, beta: float) -> "DeformationModel":
        return cls(beta)

    @property
    def kind(self) -> str:
        """Report label: ``"identity"`` at beta = 0, else ``"gup"``."""
        return "gup" if self.beta > 0 else "identity"

    @property
    def z_max_w(self) -> float:
        """Upper end of the increasing branch of w."""
        return self.beta**-0.5 if self.beta > 0 else math.inf

    @property
    def z_max_W(self) -> float:
        """Upper (excluded) end of the validity domain of W."""
        return 1.0 / (4.0 * self.beta) if self.beta > 0 else math.inf


def physical_beta(beta0: float, planck_length: float, hbar: float = 1.0) -> float:
    """Convert the dimensionless gravity parameter to working units.

    beta = beta0 * l_p^2 / hbar^2.  Conversion metadata only; the solvers
    take beta directly.  ValidationError when beta is not finite in double
    precision, as when l_p^2 or hbar^2 overflows.
    """
    try:
        beta = beta0 * planck_length**2 / hbar**2
    except (OverflowError, ZeroDivisionError):  # Python's float ** raises, not inf
        beta = math.nan
    if not math.isfinite(beta):
        raise ValidationError(f"beta0 l_p^2 / hbar^2 is not finite at beta0 = {beta0:g}, "
                              f"l_p = {planck_length:g}, hbar = {hbar:g}: outside the range "
                              "of double precision")
    return beta


def _check_nonneg(x, name):
    # a negated test, so that nan fails it as well as negative numbers
    if not np.all((x >= 0.0) & (x < math.inf)):
        raise DomainError(f"{name} must be finite and nonnegative")


def w_eval(z, model: DeformationModel):
    """Evaluate w(z) on the increasing branch.

    For the gup model w(z) = z / (1 + beta z^2), monotone only up to
    z = beta^-1/2; larger arguments raise DomainError.
    """
    z = np.asarray(z, dtype=float)
    _check_nonneg(z, "z")
    if np.any(z > model.z_max_w):
        raise DomainError(
            f"z > {model.z_max_w:g}: w is no longer increasing there"
        )
    if model.beta == 0.0:
        out = z.copy()
    else:
        out = z / (1.0 + model.beta * z**2)
    return out if out.ndim else float(out)


def w_inverse(y, model: DeformationModel):
    """Inverse of w on the increasing branch.

    The gup branch maximum is w(beta^-1/2) = 1/(2 sqrt(beta)); larger y
    raise DomainError.  The closed form is written as
    2 y / (1 + sqrt(1 - 4 beta y^2)), which is the minus-branch root of the
    defining quadratic in a form free of cancellation at small y.
    """
    y = np.asarray(y, dtype=float)
    _check_nonneg(y, "y")
    if model.beta == 0.0:
        out = y.copy()
    else:
        y_max = 0.5 / math.sqrt(model.beta)
        if np.any(y > y_max * (1.0 + 1e-15)):
            raise DomainError(
                f"y > {y_max:g}: beyond the maximum of w on its branch"
            )
        disc = np.maximum(1.0 - 4.0 * model.beta * np.minimum(y, y_max) ** 2, 0.0)
        out = 2.0 * y / (1.0 + np.sqrt(disc))
        # rounding may overshoot the branch top by one ulp
        out = np.minimum(out, model.z_max_w)
    return out if out.ndim else float(out)


def W_eval(z, model: DeformationModel):
    """Induced nonlinearity W(z) = d/dz [w^-1(sqrt(z))]^2 - 1.

    Identity model: identically zero.  Gup model: with s = sqrt(1 - 4 beta z)
    the closed form reduces to 4 / (s (1+s)^2) - 1, valid for
    0 <= z < 1/(4 beta); at the upper end W diverges and beyond it turns
    complex, so the boundary itself is excluded.  This is the one test of the
    edge; its DomainError names the physically excluded regime, unlike the one
    for a nan or infinite z, which only a numerical failure gives.  It is
    evaluated as t (8 - 5t + t^2) / (s (2-t)^2) with t = 1 - s =
    4 beta z / (1 + s), which subtracts no nearby numbers and is accurate to
    a few ulp for every beta z.

    A Python float, as the closure and evolve's per-step rows pass per axis,
    takes _W_one with no array built.  An array of any shape, such as a block
    of C F rows (rows, dims), takes _W_one's operations in its order as array
    arithmetic, bit for bit, and the DomainError of its first bad element.
    """
    if isinstance(z, float):  # the scalar the closure and evolve pass, without arrays
        return _W_one(float(z), model.beta, model.z_max_W)
    z = np.asarray(z, dtype=float)
    beta, z_max = model.beta, model.z_max_W
    # clipped to +-z_max, where each z past the edge fails anyway: beta z overflows nothing
    u = beta * np.minimum(np.maximum(z, -z_max), z_max) if beta > 0 else np.zeros(z.shape)
    r = 1.0 - 4.0 * u
    ok = (z >= 0.0) & (z < z_max) & (r > 0.0)  # nan fails it too
    if not ok.all():
        _W_one(float(z.flat[np.argmin(ok)]), beta, z_max)  # raises its DomainError
    s = np.sqrt(r)
    out = _W_of_ts(4.0 * u / (1.0 + s), s)
    return out if z.ndim else float(out)


def _W_one(x: float, beta: float, z_max: float) -> float:
    """W_eval of one Python float z = x."""
    if not 0.0 <= x < math.inf:  # nan fails it too
        raise DomainError("z must be finite and nonnegative")
    if not beta > 0:
        return 0.0
    u = beta * x
    r = 1.0 - 4.0 * u
    if x >= z_max or r <= 0.0:
        raise DomainError(f"z = C*F = {x:.6g} >= 1/(4 beta) = {z_max:.6g}: the state entered "
                          "the physically excluded regime, where W is singular or complex")
    s = math.sqrt(r)
    return _W_of_ts(4.0 * u / (1.0 + s), s)


def _W_of_ts(t: float, s: float) -> float:
    """W = 4 / (s (1+s)^2) - 1 from s = sqrt(1 - 4 beta z) and t = 1 - s, both
    given to full relative accuracy: t (8 - 5t + t^2) / (s (2-t)^2), which
    subtracts no nearby numbers.  (2 - t) is squared as a product: Python's
    ** calls pow(), which can differ from the product in the last bit."""
    return t * (8.0 - t * (5.0 - t)) / (s * ((2.0 - t) * (2.0 - t)))


def scaling_transform(delta_N, kappa: float, model: DeformationModel):
    """Deformed rescaling of a fluctuation measure: w^-1(kappa * w(delta_N)).

    Reduces to kappa * delta_N for the identity model and to the identity
    map for kappa = 1.  For the gup model with kappa > 1 the result grows
    superlinearly in kappa while it stays on the branch.
    """
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    return w_inverse(kappa * np.asarray(w_eval(delta_N, model)), model)
