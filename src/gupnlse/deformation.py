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

from .errors import DomainError

@dataclass(frozen=True)
class UnitsConfig:
    """Working units; defaults are hbar = m = 1."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0 or self.mass <= 0:
            raise ValueError("hbar and mass must be positive")

    @property
    def C(self) -> float:
        """Coefficient linking Fisher information to squared fluctuations."""
        return self.hbar**2 / 4.0


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
            raise ValueError("beta must be nonnegative and finite")
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
    take beta directly.
    """
    return beta0 * planck_length**2 / hbar**2


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
    complex, so the boundary itself is excluded.

    Works element by element on Python floats.  It is meant for a scalar or
    for per-axis components (one to three numbers), where array arithmetic
    would cost more in call overhead than in arithmetic; arrays of any shape
    are accepted and give an array of that shape.
    """
    z = np.asarray(z, dtype=float)
    gup = model.beta > 0
    z_max = model.z_max_W
    out = []
    for x in z.ravel().tolist():
        if not 0.0 <= x < math.inf:  # nan fails it too
            raise DomainError("z must be finite and nonnegative")
        if not gup:
            out.append(0.0)
            continue
        u = model.beta * x
        r = 1.0 - 4.0 * u
        if x >= z_max or r <= 0.0:
            raise DomainError(f"z >= 1/(4 beta) = {z_max:g}: W is singular/complex there")
        if u < 1e-4:
            # below u ~ 1e-4 the closed form loses digits to cancellation
            # against 1; the series u (4 + 15u + 56u^2 + 210u^3) is then
            # accurate to O(u^5)
            out.append(u * (4.0 + u * (15.0 + u * (56.0 + 210.0 * u))))
        else:
            # t * t, not t ** 2: Python's ** calls pow(), which can differ
            # from the product in the last bit
            s = math.sqrt(r)
            t = 1.0 + s
            out.append(4.0 / (s * (t * t)) - 1.0)
    return np.array(out).reshape(z.shape) if z.ndim else out[0]


def z_of_W(W: float, model: DeformationModel) -> float:
    """Inverse of :func:`W_eval` for one W >= 0: the z in [0, 1/(4 beta)) with
    W_eval(z) = W.  1/(4 beta) - z falls as 1/W^2, so past W ~ 1e8 z rounds
    to the edge itself.

    With t = 1 - s, the closed form 1 + W = 4 / (s (1+s)^2) becomes
    8t - 5t^2 + t^3 = 4W/(1+W), and 4 beta z = 1 - s^2 = t (2-t).  Both are
    free of cancellation: the cubic is increasing and concave on [0, 1), so
    Newton's method from t = W/(2(1+W)), which lies below the root, climbs to
    it monotonically, and z follows from t without a difference of nearby
    numbers.  The identity model has W = 0 for every z, so only W = 0 has an
    inverse there (z = 0).
    """
    W = float(W)
    if not 0.0 <= W < math.inf:  # nan fails it too
        raise DomainError("W must be finite and nonnegative")
    if W == 0.0:
        return 0.0
    if model.beta == 0.0:
        raise DomainError("the identity model has W = 0 for every z: no inverse at W > 0")
    c = 4.0 * W / (1.0 + W)
    t = W / (2.0 * (1.0 + W))
    for _ in range(100):
        step = (c - t * (8.0 - t * (5.0 - t))) / (8.0 - t * (10.0 - 3.0 * t))
        t += step
        if not step > 2.0**-53 * t:  # converged, or rounding turned it back
            break
    return t * (2.0 - t) / (4.0 * model.beta)


def scaling_transform(delta_N, kappa: float, model: DeformationModel):
    """Deformed rescaling of a fluctuation measure: w^-1(kappa * w(delta_N)).

    Reduces to kappa * delta_N for the identity model and to the identity
    map for kappa = 1.  For the gup model with kappa > 1 the result grows
    superlinearly in kappa while it stays on the branch.
    """
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    return w_inverse(kappa * np.asarray(w_eval(delta_N, model)), model)
