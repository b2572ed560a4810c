"""Exact desk-scale laboratory for augmentation-induced kernels.

Finite augmentation processes, their dual kernels and spectra, the
augmentation complexity, encoder quality measures (ratio trace, trace gap),
exact pretraining objectives, norm-constrained linear probes, and a
deterministic experiment harness.

Importing the package sets ``OPENBLAS_THREAD_TIMEOUT`` to 16 unless the
environment already holds it, before any module imports numpy.  OpenBLAS
then parks an idle worker thread after 2^16 clock cycles instead of
busy-waiting 2^28 (about 0.13 s on a 2 GHz core) after every threaded BLAS
call.  The thread count, the work each thread gets and every result stay
as they are; only CPU time that no result needs is saved.  A value set by
the user wins, child processes inherit the variable, and other BLAS
libraries ignore it.
"""

import os

os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "16")

from .complexity import (
    ClosedFormKappa,
    KappaReport,
    MonteCarloKappa,
    closed_form_kappa,
    kappa_exact,
    kappa_monte_carlo,
    partial_trace,
)
from .encoders import (
    CovariancePair,
    EmpiricalDecomposition,
    Encoder,
    covariances,
    empirical_decomposition,
    near_optimal_encoder,
    optimal_encoder,
    ratio_trace,
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
    minimize,
    optimal_loss,
    rbt_penalty_path,
    subspace_angle,
    value_grad,
)
from .processes import (
    AugmentationProcess,
    HypercubeConfig,
    build_custom,
    build_hypercube,
    dump_process,
    load_process,
    sample_process,
)
from .regression import (
    FitResult,
    TargetFunction,
    fit_least_squares,
    fit_least_squares_population,
    generate_labels,
    lemma32_rhs,
    probe_errors,
    project_fpsi,
    prop41_rhs,
    sample_target,
    thm31_rhs,
    thm41_rhs,
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
