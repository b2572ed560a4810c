"""Exact desk-scale laboratory for augmentation-induced kernels.

Finite augmentation processes, their dual kernels and spectra, the
augmentation complexity, encoder quality measures (ratio trace, trace gap),
exact pretraining objectives, norm-constrained linear probes, and a
deterministic experiment harness.
"""

from .complexity import (
    ClosedFormKappa,
    KappaReport,
    MonteCarloKappa,
    closed_form_kappa,
    kappa_exact,
    kappa_monte_carlo,
    kappa_percentile,
    partial_trace,
)
from .encoders import (
    CovariancePair,
    EmpiricalDecomposition,
    Encoder,
    build_average_encoder,
    covariances,
    empirical_decomposition,
    empirical_ratio_trace,
    learned_kernel,
    load_encoder,
    near_optimal_encoder,
    optimal_encoder,
    population_empirical_decomposition,
    ratio_trace,
    save_encoder,
    trace_gap,
)
from .exceptions import (
    BudgetExceededError,
    DivergenceError,
    InfeasibleTargetError,
    RankDeficiencyError,
    ValidationError,
)
from .harness import (
    ExperimentConfig,
    cell_seed,
    figure_4a_data,
    resolve_config,
    run,
)
from .objectives import (
    MinimizeResult,
    ObjectiveSpec,
    OptimizerConfig,
    loss_rbt,
    loss_scl,
    loss_sclip,
    loss_vicreg,
    minimize,
    rbt_penalty_path,
    subspace_angle,
)
from .processes import (
    AugmentationProcess,
    Distribution,
    FiniteSpace,
    HypercubeConfig,
    build_custom,
    build_hypercube,
    conditional_reverse,
    dump_process,
    load_process,
)
from .regression import (
    BoundContext,
    BoundReport,
    FitResult,
    LabeledSample,
    TargetFunction,
    evaluate_bounds,
    fit_least_squares,
    fit_least_squares_population,
    generate_labels,
    project_fpsi,
    sample_target,
    target_from_coefficients,
    worst_case_target,
)
from .spectral import (
    SpectralDecomposition,
    apply_gamma,
    apply_gamma_star,
    decompose,
    export_decomposition,
    kernel_x,
    verify_integral_identity,
)

__version__ = "0.1.0"
