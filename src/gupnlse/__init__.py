"""Numerical toolkit for the Fisher-information-coupled nonlinear Schrodinger
equation induced by deformed uncertainty scaling, including the closed-form
harmonic-oscillator results and the minimal-length limit."""

__version__ = "0.1.0"

from .deformation import (
    DeformationModel,
    UnitsConfig,
    W_eval,
    physical_beta,
    scaling_transform,
    w_eval,
    w_inverse,
)
from .errors import (
    CommensurabilityError,
    ConvergenceError,
    DomainError,
    GupnlseError,
    NodeError,
    ParseError,
    SupportError,
    ValidationError,
    ZeroFieldError,
)
from .fields import (
    FieldStats,
    Grid,
    WaveField,
    abs_curvature_ratio,
    density,
    field_stats,
    fisher_information,
    fisher_per_dim,
    galilean_boost,
    gaussian_state,
    inner_product,
    integrate,
    load_wavefield,
    momentum_stats,
    normalize,
    plane_wave,
    position_stats,
    rescale_density,
    save_density,
    save_wavefield,
)
from .stationary import (
    ConsistencyResult,
    Hamiltonian,
    HarmonicAnalytic,
    PotentialSpec,
    build_hamiltonian,
    ermakov_width,
    ground_state,
    harmonic_analytic,
    min_position_uncertainty_scan,
    nu_of_q,
    solve_consistent,
)
from .evolution import (
    EvolutionConfig,
    Trajectory,
    effective_potential,
    evolve,
    step,
)
from .checks import (
    CheckReport,
    MadelungFields,
    SuiteConfig,
    check_cramer_rao,
    check_fisher_bound,
    check_gup_form,
    check_homogeneity_stationary,
    check_modified_hj_residual,
    check_scaling_law,
    check_separability,
    check_sharper_hur,
    fluctuation_momentum_stats,
    madelung_decompose,
    madelung_residuals,
    run_all,
)
