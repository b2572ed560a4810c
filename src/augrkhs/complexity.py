"""Augmentation complexity and trace quantities.

The central measure is the squared complexity ``kappa^2``, the essential sup
of the diagonal ``K_X(x, x)``; it equals one plus the worst-case chi-squared
divergence of the conditional augmentation law from its marginal.  It is
computed here exactly, with its mass-weighted ``PERCENTILE``-th percentile,
by Monte-Carlo sampling of that percentile, and by the closed forms
available for the hypercube masking schemes.
All values are reported squared to avoid precision loss at large magnitudes.
The direct sums over a table are ``processes``' row sums, never a product
with the table, so they read either stored form and load no ``scipy.sparse``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .processes import (AugmentationProcess, HypercubeConfig, _implicit_mass,
                        _row_sums)
# decompose stays bound here: perfbench's tracer test checks this binding
from .spectral import SpectralDecomposition, decompose

_ROUTE_AGREEMENT_TOL = 1e-8
_BOOTSTRAP_RESAMPLES = 200  # kappa_monte_carlo's standard error
# the percentile, in percent, that kappa_exact and kappa_monte_carlo report
PERCENTILE = 99.0


@dataclass(frozen=True, eq=False)
class KappaReport:
    """Exact complexity summary for one process.

    ``kappa_sq_max`` is the maximum of ``K_X(x,x)``; ``kappa_sq_percentile``
    its mass-weighted ``PERCENTILE``-th percentile; ``s_lambda_total`` the full
    eigenvalue sum; ``chi_sq_identity_residual`` the absolute defect in the
    identity between that sum and one plus the mean chi-squared divergence.
    """

    kappa_sq_max: float
    kappa_sq_percentile: float
    per_point: np.ndarray
    s_lambda_total: float
    chi_sq_identity_residual: float


@dataclass(frozen=True)
class MonteCarloKappa:
    estimate: float
    standard_error: float


@dataclass(frozen=True)
class ClosedFormKappa:
    value: float
    kind: str  # "exact" or "upper_bound"


def diagonal_kernel_values(process: AugmentationProcess) -> np.ndarray:
    """Per-point ``K_X(x,x) = sum_a p(a|x)^2 / p_a(a)`` by direct summation.

    Read from the table, not through the spectral operators, because
    :func:`kappa_exact` checks the spectral diagonal
    ``sum_i lambda_i psi_i(x)^2`` against it.  Summed over the stored
    entries of each row (:func:`processes._row_sums`): a dense table a block
    of about ``processes.BLOCK_ENTRIES`` entries of rows at a time, never
    copied whole, a sparse one never made dense.
    """
    return _row_sums(process.conditional, lambda c, w: c * c * w,
                     1.0 / process.p_a)


def mean_chi_squared(process: AugmentationProcess) -> float:
    """Average over ``p_x`` of the chi-squared divergence of p(.|x) from p_a.

    Summed over the stored entries of each row, as
    ``sum_supp (p(a|x) - p_a)^2 / p_a + (1 - sum_supp p_a)``: an augmentation
    outside the row's support contributes its ``p_a``
    (:func:`processes._implicit_mass`).  A sparse table is never densified;
    a dense one stores every ``a``, so its second term is 0, and is reduced
    a block of rows at a time, as in :func:`diagonal_kernel_values`.
    Read from the table, independently of :func:`diagonal_kernel_values`
    and of the spectrum, because :func:`kappa_exact` measures the residual
    of the trace identity ``sum_i lambda_i = 1 + mean chi-squared`` with it.
    """
    table, p_a = process.conditional, process.p_a
    per_x = (_row_sums(table, lambda c, w: (c - w) ** 2 / w, p_a)
             + _implicit_mass(table, p_a))
    return float(per_x @ process.p_x)


def weighted_percentile(values: np.ndarray, weights: np.ndarray,
                        beta: float) -> float:
    """Smallest value whose cumulative weight reaches ``beta`` percent."""
    if not (0.0 < beta <= 100.0):
        raise ValidationError(f"beta must lie in (0, 100], got {beta}")
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    threshold = beta / 100.0 - 1e-12
    idx = int(np.searchsorted(cum, threshold, side="left"))
    idx = min(idx, values.size - 1)
    return float(values[order][idx])


def kappa_exact(dec: SpectralDecomposition) -> KappaReport:
    """Exact complexity report of ``dec.process`` with a two-route check.

    The diagonal is computed both by direct summation and through the
    spectral expansion ``sum_i lambda_i psi_i(x)^2``; the two must agree
    within 1e-8.  Only the decomposition's ``lambdas`` and ``psi`` are
    read, so its ``phi`` is never formed here.  The passes over a dense
    table, the direct diagonal and :func:`mean_chi_squared`, hold one block
    of rows (two arrays of at most ``max(processes.BLOCK_ENTRIES, |A|)``
    entries) besides vectors over ``X`` and ``A``, never a copy of the table.
    """
    process = dec.process
    direct = diagonal_kernel_values(process)
    spectral_diag = ((dec.psi * dec.psi) * dec.lambdas).sum(axis=1)
    gap = float(np.max(np.abs(direct - spectral_diag)))
    if gap > _ROUTE_AGREEMENT_TOL:
        raise ArithmeticError(
            f"direct and spectral diagonals disagree by {gap!r}"
        )
    s_lambda = float(dec.lambdas.sum())
    residual = abs(s_lambda - (1.0 + mean_chi_squared(process)))
    direct.setflags(write=False)
    return KappaReport(
        kappa_sq_max=float(direct.max()),
        kappa_sq_percentile=weighted_percentile(direct, process.p_x,
                                                PERCENTILE),
        per_point=direct,
        s_lambda_total=s_lambda,
        chi_sq_identity_residual=residual,
    )


def kappa_monte_carlo(process: AugmentationProcess, m: int, r: int,
                      seed: int = 0) -> MonteCarloKappa:
    """Sampled percentile estimate of the complexity.

    Draws ``m`` points from ``p_x``; for each, averages the exact density
    ratio ``p(x|a)/p(x) = p(a|x)/p_a(a)`` over ``r`` augmentations drawn from
    the conditional.  Returns the ``PERCENTILE``-th percentile of the ``m``
    averages with a bootstrap standard error.  Deterministic given the seed.
    """
    if m < 1 or r < 1:
        raise ValidationError("m and r must be >= 1")
    rng = np.random.default_rng(seed)
    xs = rng.choice(process.n_x, size=m, p=process.p_x)
    # only the distinct sampled rows are made dense
    points, inverse = np.unique(xs, return_inverse=True)
    rows = process.conditional_dense(points)
    averages = np.empty(m)
    for k, i in enumerate(inverse):
        row = rows[i]
        draws = rng.choice(process.n_a, size=r, p=row)
        averages[k] = float(np.mean(row[draws] / process.p_a[draws]))
    uniform = np.full(m, 1.0 / m)
    estimate = weighted_percentile(averages, uniform, PERCENTILE)
    boot = np.empty(_BOOTSTRAP_RESAMPLES)
    for b in range(_BOOTSTRAP_RESAMPLES):
        resample = averages[rng.integers(0, m, size=m)]
        boot[b] = weighted_percentile(resample, uniform, PERCENTILE)
    return MonteCarloKappa(estimate=estimate,
                           standard_error=float(boot.std(ddof=1)))


# scheme -> (kind, kappa^2 as a function of d_x and alpha), the closed
# forms of the paper's Figure 4a; the figure evaluates them at d_x = 1
_CLOSED_FORMS = {
    "random_mask": ("exact", lambda d, a: (2.0 - a) ** d),
    "block_mask": ("upper_bound", lambda d, a: 2.0 ** ((1.0 - a) * d)),
    "block_mask_flip": ("upper_bound",
                        lambda d, a: (a * a - 2.0 * a + 2.0)
                        ** ((1.0 - a / 2.0) * d)),
}


def closed_form_kappa(config: HypercubeConfig) -> ClosedFormKappa | None:
    """Closed-form squared complexity for the hypercube masking schemes.

    Independent random masking admits the exact value ``(2 - alpha)^d``;
    the block schemes admit upper bounds ``2^((1-alpha) d)`` and
    ``(alpha^2 - 2 alpha + 2)^((1 - alpha/2) d)``.  The combined
    random-mask-plus-flip scheme has no closed form: ``None``.
    """
    if config.scheme not in _CLOSED_FORMS:
        return None
    kind, form = _CLOSED_FORMS[config.scheme]
    return ClosedFormKappa(form(config.d_x, config.alpha), kind)


def partial_trace(decomposition: SpectralDecomposition, d: int) -> float:
    """Sum of the top ``min(d, rank)`` eigenvalues (zeros beyond the rank)."""
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    return float(decomposition.lambdas[: min(d, decomposition.rank)].sum())
