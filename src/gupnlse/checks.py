"""Executable cross-checks of the theory's inequalities, scaling laws and structure.

A note on momentum in the inequality checks.  The deformed uncertainty
relation Delta x * w(Delta p) >= hbar/2 is stated for the momentum of the
underlying fluctuating classical description, whose variance decomposes as

    (Delta p)^2 = Var_P[dS/dx] + (Delta N)^2,    Delta N = w^-1(sqrt(C F)),

and which coincides with the variance of the operator -i hbar d/dx exactly
when w is the identity.  The operator variance itself cannot satisfy the
deformed relation on Gaussian states (they saturate Delta x Delta p =
hbar/2, so any w(z) < z pushes the product below hbar/2); the checks here
therefore use the fluctuation momentum above, and report the operator
product alongside for reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .deformation import DeformationModel, UnitsConfig, w_eval, w_inverse
from .errors import DomainError, ValidationError
from .evolution import EvolutionConfig, Trajectory, _W_params, evolve
from .fields import (
    BOUNDARY_PERIODIC,
    Grid,
    WaveField,
    _diff1,
    _diff2,
    _madelung_phase,
    density,
    fisher_per_dim,
    gaussian_state,
    inner_product,
    integrate,
    normalize,
    plane_wave,
    position_stats,
    momentum_stats,
    rescale_density,
)
from .stationary import (
    PotentialSpec,
    build_hamiltonian,
    harmonic_analytic,
    solve_consistent,
)

# run_all's harmonic stiffness, and the half-width of its solver grids in
# units of the consistent state's width sigma
SUITE_ZETA = 1.0
SUITE_EXTENT_SIGMAS = 9.0


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    measured: float
    bound: float
    details: str = ""

    def to_dict(self) -> dict:
        # the fields as they are: asdict deep-copies these immutable values, ~15x slower
        return {"name": self.name, "passed": self.passed, "measured": self.measured,
                "bound": self.bound, "details": self.details}


@dataclass(frozen=True)
class MadelungFields:
    """Hydrodynamic decomposition psi = sqrt(P) exp(i S / hbar)."""

    P: np.ndarray
    S: np.ndarray
    grid: Grid


def madelung_decompose(psi: WaveField) -> MadelungFields:
    """P = |psi|^2 and S = hbar * arg psi, unwrapped by fields._madelung_phase
    and anchored at the peak of |psi|.

    The reconstruction sqrt(P) exp(iS/hbar) reproduces psi pointwise.  States
    with nodes raise NodeError; tails below the significance floor keep a
    (probability-free) extrapolated phase.  On a ring S is continuous over a
    support that crosses the seam; a phase winding round the ring jumps there.
    """
    a = np.abs(psi.values)
    return MadelungFields(P=a**2, S=psi.units.hbar * _madelung_phase(psi, a)[0], grid=psi.grid)


def _phase_rate(values, dvalues, rho, hbar: float) -> np.ndarray:
    """D S = hbar Im(conj(psi) D psi) / rho of the Madelung phase S, for psi =
    values, dvalues = D psi with D a central difference in space or time, and
    rho = |psi|^2; zero where rho is at or below 1e-30 of its peak.  Read from
    psi, it needs no unwrapped phase, so a phase winding round a ring has no seam."""
    floor = 1e-30 * rho.max()
    ds = hbar * np.imag(np.conj(values) * dvalues)
    return np.where(rho > floor, ds / np.maximum(rho, floor), 0.0)


def fluctuation_momentum_stats(psi: WaveField, model: DeformationModel):
    """Per-dimension fluctuating-momentum spread:
    sqrt(Var_P[d_l S] + w^-1(sqrt(C F_l))^2).

    d_l S is _phase_rate of psi's central difference; zero for a real state.
    Identical to the operator momentum spread for the identity model.
    """
    return _fluctuation_momentum(psi, fisher_per_dim(psi), model)


def _fluctuation_momentum(psi: WaveField, F: np.ndarray, model: DeformationModel):
    """fluctuation_momentum_stats of psi, given its fisher_per_dim F."""
    grid, units = psi.grid, psi.units
    dN = np.array([w_inverse(math.sqrt(units.C * f), model) for f in F])
    vals, rho = psi.values, density(psi)
    total = integrate(rho, grid)
    var_s = np.empty(grid.dims)
    for l in range(grid.dims):
        ds = _phase_rate(vals, _diff1(vals, grid, l), rho, units.hbar)
        mean = integrate(ds * rho, grid) / total
        var_s[l] = integrate((ds - mean) ** 2 * rho, grid) / total
    return np.sqrt(var_s + dN**2)


def check_sharper_hur(psi: WaveField, model: DeformationModel):
    """Delta x_l * w(Delta p_l) >= hbar/2 per dimension (deformed relation).

    w_eval owns the branch edge: a Delta p_l beyond the increasing branch of
    w raises its DomainError."""
    return _sharper_hur(position_stats(psi)[1], fluctuation_momentum_stats(psi, model),
                        momentum_stats(psi)[1], model, psi.units)


def _sharper_hur(delta_x, dp_w, dp_op, model: DeformationModel, units: UnitsConfig) -> list:
    """check_sharper_hur's reports from delta_x, dp_w and the operator's dp."""
    bound = units.hbar / 2 * (1 - 1e-6)
    reports = []
    for l in range(len(delta_x)):
        measured = delta_x[l] * w_eval(dp_w[l], model)
        reports.append(CheckReport(
            name=f"sharper_hur[{l}]",
            passed=bool(measured >= bound),
            measured=float(measured),
            bound=float(bound),
            details=(f"fluctuation dp={dp_w[l]:.9g}; operator product "
                     f"dx*dp_op={delta_x[l] * dp_op[l]:.9g}"),
        ))
    return reports


def check_gup_form(psi: WaveField, model: DeformationModel):
    """Delta x * Delta p >= (hbar/2)(1 + beta (Delta p)^2) per dimension,
    with the same fluctuation momentum as check_sharper_hur; the two forms
    are algebraically equivalent on the increasing branch of w."""
    return _gup_form(position_stats(psi)[1], fluctuation_momentum_stats(psi, model), model, psi.units)


def _gup_form(delta_x, dp_w, model: DeformationModel, units: UnitsConfig) -> list:
    """check_gup_form's reports from delta_x and dp_w, as in _sharper_hur."""
    reports = []
    for l in range(len(delta_x)):
        measured = delta_x[l] * dp_w[l]
        bound = units.hbar / 2 * (1 + model.beta * dp_w[l] ** 2) * (1 - 1e-6)
        reports.append(CheckReport(
            name=f"gup_form[{l}]",
            passed=bool(measured >= bound),
            measured=float(measured),
            bound=float(bound),
            details=f"beta={model.beta:g}",
        ))
    return reports


def check_cramer_rao(psi: WaveField):
    """(Delta x_l)^2 F_l >= 1 per dimension."""
    return _cramer_rao(position_stats(psi)[1], fisher_per_dim(psi))


def _cramer_rao(delta_x, F) -> list:
    """check_cramer_rao's reports from delta_x and the state's fisher_per_dim F."""
    bound = 1 - 1e-6
    return [
        CheckReport(
            name=f"cramer_rao[{l}]",
            passed=bool(delta_x[l] ** 2 * F[l] >= bound),
            measured=float(delta_x[l] ** 2 * F[l]),
            bound=bound,
        )
        for l in range(len(delta_x))
    ]


def check_fisher_bound(psi: WaveField, model: DeformationModel) -> CheckReport:
    """hbar^2 beta F_l <= 1 for every l: the Fisher information cap that
    encodes the minimal observable length."""
    return _fisher_bound(fisher_per_dim(psi), model, psi.units)


def _fisher_bound(F, model: DeformationModel, units: UnitsConfig) -> CheckReport:
    """check_fisher_bound's report from the state's fisher_per_dim F."""
    measured = float(np.max(units.hbar**2 * model.beta * F))
    return CheckReport(
        name="fisher_bound",
        passed=bool(measured <= 1.0),
        measured=measured,
        bound=1.0,
        details=f"beta={model.beta:g}, max F={float(np.max(F)):.9g}",
    )


def check_scaling_law(rho: np.ndarray, kappa: float, grid: Grid) -> CheckReport:
    """The deformed fluctuation measure sqrt(C F) scales linearly with kappa
    under rho -> kappa^n rho(kappa x), for every deformation model.  C cancels
    in the relative error, so the check measures sqrt(F), free of units and
    model."""
    F = fisher_per_dim(rho, grid)
    F_k = fisher_per_dim(rescale_density(rho, kappa, grid), grid)
    base = kappa * np.sqrt(F)
    measured = float(np.max(np.abs(np.sqrt(F_k) - base) / base))
    return CheckReport(
        name=f"scaling_law(kappa={kappa:g})",
        passed=bool(measured <= 1e-4),
        measured=measured,
        bound=1e-4,
    )


def check_homogeneity_stationary(potential: PotentialSpec, model: DeformationModel,
                                 A: float, grid: Grid,
                                 units: UnitsConfig = UnitsConfig()) -> CheckReport:
    """With W frozen from a converged solve, A psi satisfies the same
    eigen-equation: the scaled residual matches the unscaled one at the
    rounding floor of the operator application.  A power of two, as
    run_all's A = 2^10, scales every rounding exactly, so the two residuals
    agree exactly (measured 0.0 at every default beta): the check then
    tests the linearity of the frozen-W operator."""
    if A == 0:
        raise ValidationError("A must be nonzero")
    return _homogeneity_report(solve_consistent(grid, potential, model, units), potential, A)


def _homogeneity_report(result, potential: PotentialSpec, A: float) -> CheckReport:
    """``check_homogeneity_stationary`` on an already solved closure."""
    grid, units = result.psi.grid, result.psi.units
    H = build_hamiltonian(grid, potential, result.W_params, units)
    psi = np.real(result.psi.values)
    norm = lambda f: math.sqrt(inner_product(f, f, grid).real)
    H_psi, E = H.matvec(psi), result.energy
    r_base, r_scaled = norm(H_psi - E * psi), norm(H.matvec(A * psi) - E * (A * psi)) / abs(A)
    # normalize by the operator scale: the raw residuals sit at eps*||H psi||
    scale = max(norm(H_psi), max(2 * H.hopping(l) for l in range(grid.dims)))
    measured = abs(r_scaled - r_base) / scale
    return CheckReport(
        name=f"homogeneity_stationary(A={A:g})",
        passed=bool(measured <= 1e-12),
        measured=float(measured),
        bound=1e-12,
        details=f"residual {r_base:.3e} vs scaled {r_scaled:.3e}",
    )


def check_separability(psi1: WaveField, psi2: WaveField,
                       config: EvolutionConfig) -> CheckReport:
    """Evolve psi1 x psi2 on the product grid and each factor separately;
    the two answers agree pointwise for separable dynamics."""
    g1, g2 = psi1.grid, psi2.grid
    if g1.boundary != g2.boundary or psi1.units != psi2.units:
        raise ValidationError("factors must share the boundary type and the units")
    grid2 = Grid(
        g1.points_per_dim + g2.points_per_dim,
        g1.spacing + g2.spacing,
        g1.origin + g2.origin,
        g1.boundary,
    )
    prod = WaveField(grid2, np.multiply.outer(psi1.values, psi2.values), psi1.units)
    traj2 = evolve(prod, config)
    traj_a = evolve(psi1, config)
    traj_b = evolve(psi2, config)
    for t in (traj2, traj_a, traj_b):
        if t.failure:
            raise DomainError(t.failure)
    tensor = np.multiply.outer(traj_a.psi_final.values, traj_b.psi_final.values)
    measured = float(np.max(np.abs(traj2.psi_final.values - tensor)))
    return CheckReport(
        name=f"separability({config.steps} steps)",
        passed=bool(measured <= 1e-6),
        measured=measured,
        bound=1e-6,
        details=f"model={config.model.kind}, beta={config.model.beta:g}",
    )


def madelung_residuals(trajectory: Trajectory, window: tuple = None):
    """L2 residuals of the continuity and modified Hamilton-Jacobi equations.

    Uses the last three consecutive snapshots of the trajectory (central
    time differences), in their units, under the model and potential of the
    run (trajectory.config), and central space differences.  S's derivatives
    are read from psi (_phase_rate), not from an unwrapped phase, so they hold
    on rings, where the phase winds; a snapshot with a node still raises
    NodeError.  The L2 norm runs over the coordinate box of the region where
    the middle density exceeds 1e-6 of its peak, or over the given window
    (per-axis coordinate bounds); ValidationError names the seam when that
    region wraps round a ring's seam, where a box would take in the empty
    side.  Returns (continuity_l2, hj_l2, window).
    """
    if len(trajectory.snapshots) < 3:
        raise ValidationError("need at least three recorded snapshots")
    snaps = trajectory.snapshots[-3:]
    t_m, t_0, t_p = (s[0] for s in snaps)
    dt_m, dt_p = t_0 - t_m, t_p - t_0
    if abs(dt_m - dt_p) > 1e-12 * dt_p:
        raise ValidationError("snapshots must be equally spaced in time")
    grid, units = snaps[1][1].grid, snaps[1][1].units
    hbar, mass = units.hbar, units.mass
    for _, psi in snaps:
        _madelung_phase(psi, np.abs(psi.values))
    psi_m, psi0, psi_p = (psi.values for _, psi in snaps)
    P0 = np.abs(psi0) ** 2
    Pt = (np.abs(psi_p) ** 2 - np.abs(psi_m) ** 2) / (2 * dt_p)
    St = _phase_rate(psi0, (psi_p - psi_m) / (2 * dt_p), P0, hbar)

    W = _W_params(fisher_per_dim(P0, grid).tolist(), trajectory.config.model, units.C)
    V = trajectory.config.potential.evaluate(grid)

    cont = Pt.copy()
    hj = St + V
    for l in range(grid.dims):
        dS = _phase_rate(psi0, _diff1(psi0, grid, l), P0, hbar)
        cont = cont + _diff1(P0 * dS / mass, grid, l)
        dP = _diff1(P0, grid, l)
        d2P = _diff2(P0, grid, l)
        hj = hj + dS**2 / (2 * mass)
        hj = hj + (hbar**2 / (8 * mass)) * (1 + W[l]) * ((dP / P0) ** 2 - 2 * d2P / P0)

    if window is None:
        sig = P0 >= 1e-6 * P0.max()
        for l in range(grid.dims):
            line = sig.any(axis=tuple(a for a in range(grid.dims) if a != l))
            if grid.boundary == BOUNDARY_PERIODIC and line[0] and line[-1] and not line.all():
                raise ValidationError(f"the support wraps round the ring's seam along axis {l}, "
                                      "where no coordinate window holds it")
        window = tuple((float(x.min()), float(x.max()))
                       for x in (np.broadcast_to(X, grid.shape)[sig] for X in grid.sparse_axes))
    mask = True
    for X, (lo, hi) in zip(grid.sparse_axes, window):
        mask = mask & (X >= lo) & (X <= hi)
    l2 = lambda f: math.sqrt(integrate(np.where(mask, f, 0.0) ** 2, grid))
    return l2(cont), l2(hj), window


def check_modified_hj_residual(trajectory: Trajectory, refined: Trajectory) -> CheckReport:
    """Second-order convergence of the Madelung residuals: halving dx and dt
    together divides both L2 residuals by 4 (+- 0.5).  Each residual is
    taken under its own run's model and potential."""
    cont_c, hj_c, window = madelung_residuals(trajectory)
    cont_f, hj_f, _ = madelung_residuals(refined, window=window)
    ratio_cont = cont_c / cont_f
    ratio_hj = hj_c / hj_f
    measured = max(abs(ratio_cont - 4.0), abs(ratio_hj - 4.0))
    return CheckReport(
        name="modified_hj_residual",
        passed=bool(3.5 <= ratio_cont <= 4.5 and 3.5 <= ratio_hj <= 4.5),
        measured=float(measured),
        bound=0.5,
        details=(f"continuity ratio {ratio_cont:.3f}, hj ratio {ratio_hj:.3f}; "
                 f"coarse residuals cont={cont_c:.3e} hj={hj_c:.3e}"),
    )


# ---------------------------------------------------------------------------
# full suite

@dataclass(frozen=True)
class SuiteConfig:
    """State/parameter matrix for run_all."""

    betas: tuple = (0.0, 1e-4, 1e-2, 1.0)
    grid_points: int = 512
    evolve_steps: int = 200
    dt: float = 2e-3
    units: UnitsConfig = field(default_factory=UnitsConfig)
    seed: int = 0


def _tagged(reports, tag: str) -> list:
    """The reports renamed ``name[tag]``."""
    return [replace(rep, name=f"{rep.name}[{tag}]") for rep in reports]


def run_all(config: SuiteConfig = SuiteConfig()):
    """Run the whole suite over {identity, gup(beta)} x {free, harmonic}."""
    units = config.units
    reports = []
    rng = np.random.default_rng(config.seed)
    for beta in config.betas:
        model = DeformationModel(beta)
        tag = f"beta={beta:g}"

        # free particle on a periodic box: plane waves are transparent
        n = 128
        L = 16.0
        pgrid = Grid.centered(L / 2, n, boundary=BOUNDARY_PERIODIC)
        k = 2 * math.pi * 3 / L
        pw = plane_wave(pgrid, k, units)
        traj = evolve(pw, EvolutionConfig(
            dt=config.dt, steps=config.evolve_steps, model=model,
            potential=PotentialSpec.free()))
        if traj.failure:
            reports.append(CheckReport(f"plane_wave_transparency[{tag}]", False,
                                       math.inf, 1e-10, traj.failure))
        else:
            # the free dispersion relation: the phase turns at hbar k^2 / 2m
            omega = units.hbar * k**2 / (2 * units.mass)
            dev = max(float(np.max(np.abs(psi.values - pw.values * np.exp(-1j * omega * t))))
                      for t, psi in traj.snapshots)
            reports.append(CheckReport(
                f"plane_wave_transparency[{tag}]", dev <= 1e-10, dev, 1e-10))
            drift = float(np.max(np.abs(traj.norms - traj.norms[0])))
            reports.append(CheckReport(
                f"norm_conservation_free[{tag}]", drift <= 1e-8, drift, 1e-8))
            F0 = max(traj.stats[0].fisher)  # psi0's row: the pass fisher_per_dim(pw) makes
            reports.append(CheckReport(
                f"plane_wave_fisher_zero[{tag}]", F0 <= 1e-12, F0, 1e-12))

        # harmonic confinement: consistent ground state and its inequalities
        ana = harmonic_analytic(beta, SUITE_ZETA, units)
        sigma = math.sqrt(ana.sigma_sq)
        hgrid = Grid.centered(SUITE_EXTENT_SIGMAS * sigma, config.grid_points)
        result = solve_consistent(hgrid, PotentialSpec.harmonic(SUITE_ZETA), model, units)
        psi = result.psi
        delta_x, F = position_stats(psi)[1], fisher_per_dim(psi)  # each once, shared below
        dp_w = _fluctuation_momentum(psi, F, model)
        reports += _tagged([*_sharper_hur(delta_x, dp_w, momentum_stats(psi)[1], model, units),
                            *_gup_form(delta_x, dp_w, model, units),
                            *_cramer_rao(delta_x, F), _fisher_bound(F, model, units)], tag)
        kappa = 1.25 + 0.5 * rng.random()
        # rescaling needs a finer grid than the solver does for 1e-4 accuracy
        fgrid = Grid.centered(1.2 * SUITE_EXTENT_SIGMAS * sigma, 4096)
        reports += _tagged([
            check_scaling_law(density(gaussian_state(fgrid, sigma)), kappa, fgrid),
            _homogeneity_report(result, PotentialSpec.harmonic(SUITE_ZETA), 2.0**10),
        ], tag)
        # real stationary state: the phase field is flat
        phase, sig = _madelung_phase(psi, np.abs(psi.values))
        smax = float(np.max(np.abs(units.hbar * phase[sig])))
        reports.append(CheckReport(
            f"madelung_flat_phase[{tag}]", smax <= 1e-10, smax, 1e-10))
    return reports


def format_report_table(reports) -> str:
    lines = [f"{'check':48s} {'status':6s} {'measured':>14s} {'bound':>14s}"]
    for r in reports:
        lines.append(
            f"{r.name:48s} {'PASS' if r.passed else 'FAIL':6s} "
            f"{r.measured:14.6e} {r.bound:14.6e}"
        )
    n_fail = sum(0 if r.passed else 1 for r in reports)
    lines.append(f"{len(reports)} checks, {n_fail} failures")
    return "\n".join(lines)
