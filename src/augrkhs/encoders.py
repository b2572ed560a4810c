"""Encoders on the augmentation space and their quality measures.

An encoder is a ``d``-row function table on the augmentation space; its
average encoder on the data space is the row-wise conditional expectation.
Quality is captured by the covariance pair (F on data, G on augmentations),
the ratio trace ``Tr(G^-1 F)``, and the trace gap, the worst residual
between partial eigenvalue sums and the best ratio trace achievable inside
the encoder's span.  The empirical route replaces the data marginal with an
N-sample empirical measure and extracts near-optimal encoders from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .complexity import partial_trace
from .exceptions import RankDeficiencyError, ValidationError
from .processes import AugmentationProcess
from .spectral import (
    SpectralDecomposition,
    _spectral_engine,
    apply_gamma_star,
    decompose,
)

_GRAM_RANK_TOL = 1e-10
_CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class Encoder:
    """A full-rank ``d x |A|`` table with its derived average encoder.

    ``psi_hat`` row ``i`` is the conditional expectation of ``phi_hat`` row
    ``i`` given the data point, computed exactly from the process tables.
    """

    phi_hat: np.ndarray
    psi_hat: np.ndarray
    d: int
    process: AugmentationProcess
    decomposition: SpectralDecomposition

    def __post_init__(self):
        self.phi_hat.setflags(write=False)
        self.psi_hat.setflags(write=False)


@dataclass(frozen=True, eq=False)
class CovariancePair:
    """Weighted Grams ``F`` (data side) and ``G`` (augmentation side)."""

    F: np.ndarray
    G: np.ndarray
    gamma_g: float


def gram_a(process: AugmentationProcess, phi_hat: np.ndarray) -> np.ndarray:
    """Augmentation-side Gram under the ``p_a`` weight."""
    return (phi_hat * process.p_a.mass[None, :]) @ phi_hat.T


def gram_x(process: AugmentationProcess, psi_hat: np.ndarray) -> np.ndarray:
    """Data-side Gram under the ``p_x`` weight."""
    return (psi_hat * process.p_x.mass[None, :]) @ psi_hat.T


def build_average_encoder(process: AugmentationProcess, phi_hat,
                          decomposition: SpectralDecomposition | None = None
                          ) -> Encoder:
    """Wrap a raw table as an :class:`Encoder` with its average encoder.

    Raises :class:`RankDeficiencyError` naming the deficient singular value
    when the rows are not linearly independent under the ``p_a`` weighting.
    """
    phi_hat = np.atleast_2d(np.asarray(phi_hat, dtype=float)).copy()
    if phi_hat.shape[1] != process.n_a:
        raise ValidationError(
            f"encoder table has {phi_hat.shape[1]} columns, "
            f"augmentation space has {process.n_a}"
        )
    G = gram_a(process, phi_hat)
    smallest = float(np.min(np.linalg.svd(G, compute_uv=False)))
    if smallest <= _GRAM_RANK_TOL:
        raise RankDeficiencyError(
            f"encoder rows are rank deficient: smallest Gram singular value "
            f"{smallest:.3e} <= {_GRAM_RANK_TOL}"
        )
    if decomposition is None:
        decomposition = decompose(process)
    psi_hat = apply_gamma_star(process, phi_hat.T).T
    return Encoder(phi_hat=phi_hat, psi_hat=psi_hat, d=phi_hat.shape[0],
                   process=process, decomposition=decomposition)


def covariances(encoder: Encoder) -> CovariancePair:
    """Exact covariance pair of an encoder, plus the condition number of G."""
    F = gram_x(encoder.process, encoder.psi_hat)
    G = gram_a(encoder.process, encoder.phi_hat)
    F = 0.5 * (F + F.T)
    G = 0.5 * (G + G.T)
    eigs = np.linalg.eigvalsh(G)
    if eigs[0] <= 0 or eigs[-1] / eigs[0] > _CONDITION_LIMIT:
        raise RankDeficiencyError(
            f"G is numerically singular (condition {eigs[-1] / eigs[0]:.3e})"
        )
    return CovariancePair(F=F, G=G, gamma_g=float(eigs[-1] / eigs[0]))


def ratio_trace(cov: CovariancePair) -> float:
    """``Tr(G^-1 F)``; at most the matching partial eigenvalue sum."""
    return float(np.trace(np.linalg.solve(cov.G, cov.F)))


def pencil_eigenvalues(cov: CovariancePair) -> np.ndarray:
    """Descending generalized eigenvalues of the pencil ``(F, G)``.

    Solved by Cholesky reduction: with ``G = L L^T``, they are the
    eigenvalues of the symmetric ``L^-1 F L^-T``.  :func:`covariances`
    has already refused a ``G`` whose condition exceeds ``1e12``.
    """
    L = np.linalg.cholesky(cov.G)
    M = np.linalg.solve(L, np.linalg.solve(L, cov.F).T)
    return np.linalg.eigvalsh(0.5 * (M + M.T))[::-1]


def trace_gap(encoder: Encoder) -> float:
    """Worst residual between partial traces and in-span ratio traces.

    For each dimension ``d'`` up to ``d``, the best ``d'``-dimensional ratio
    trace achievable inside the encoder's span is the sum of the top ``d'``
    eigenvalues of the pencil ``(F, G)``; the gap is the minimum over ``d'``
    of the partial trace ``S(d'+1)`` minus that sum.  Always at least the
    ``(d+1)``-st eigenvalue.
    """
    cov = covariances(encoder)
    mu = pencil_eigenvalues(cov)
    dec = encoder.decomposition
    best = np.inf
    running = 0.0
    for dp in range(1, encoder.d + 1):
        running += mu[dp - 1]
        best = min(best, partial_trace(dec, dp + 1) - running)
    return float(best)


def learned_kernel(encoder: Encoder) -> np.ndarray:
    """Kernel of the encoder's span, ``psi_hat(x)^T G^-1 psi_hat(x')``."""
    cov = covariances(encoder)
    return encoder.psi_hat.T @ np.linalg.solve(cov.G, encoder.psi_hat)


def optimal_encoder(decomposition: SpectralDecomposition, d: int) -> Encoder:
    """Encoder whose rows are the top ``d`` augmentation eigenfunctions."""
    if not (1 <= d <= decomposition.rank):
        raise ValidationError(
            f"d must lie in [1, rank={decomposition.rank}], got {d}"
        )
    return build_average_encoder(
        decomposition.process, decomposition.phi[:, :d].T, decomposition
    )


@dataclass(frozen=True, eq=False)
class EmpiricalDecomposition:
    """Spectral system of the empirical operator built from N samples.

    The empirical operator depends on the sample only through its distinct
    points and their summed weights, so the spectrum is solved on the
    distinct sampled points.  ``psi_bar`` has one row per sample, equal on
    duplicate samples (orthonormal under the empirical inner product);
    ``phi_bar`` is stored on the full augmentation space,
    zero on augmentations the sample never reaches, orthonormal under the
    empirical augmentation marginal ``p_a_hat``.
    """

    process: AugmentationProcess
    sample_indices: np.ndarray
    weights: np.ndarray
    p_a_hat: np.ndarray
    lambdas_bar: np.ndarray
    psi_bar: np.ndarray
    phi_bar: np.ndarray
    N: int
    rank: int


def _empirical_from_weights(process, indices, weights, rank_tol):
    # the empirical operator sees the sample only through its distinct
    # points and their summed weights, so the spectrum is solved on those
    points, inverse = np.unique(indices, return_inverse=True)
    point_weights = np.bincount(inverse, weights=weights)
    C = process.conditional
    rows = C[points].toarray() if sp.issparse(C) else process.conditional_dense()[points]
    p_a_hat = point_weights @ rows
    kept = np.nonzero(p_a_hat > 0.0)[0]
    lambdas, psi, phi = _spectral_engine(
        rows[:, kept], np.sqrt(point_weights), np.sqrt(p_a_hat[kept]), rank_tol)
    phi_bar = np.zeros((process.n_a, lambdas.size))
    phi_bar[kept] = phi
    full = np.zeros(process.n_a)
    full[kept] = p_a_hat[kept]
    return EmpiricalDecomposition(
        process=process, sample_indices=indices, weights=weights,
        p_a_hat=full, lambdas_bar=lambdas, psi_bar=psi[inverse],
        phi_bar=phi_bar, N=indices.size, rank=lambdas.size,
    )


def empirical_decomposition(process: AugmentationProcess, N: int, seed: int,
                            rank_tol: float = 1e-10) -> EmpiricalDecomposition:
    """Spectral system from ``N`` i.i.d. draws of the data marginal."""
    if N < 1:
        raise ValidationError(f"N must be >= 1, got {N}")
    rng = np.random.default_rng(seed)
    indices = rng.choice(process.n_x, size=N, p=process.p_x.mass)
    weights = np.full(N, 1.0 / N)
    return _empirical_from_weights(process, indices, weights, rank_tol)


def population_empirical_decomposition(process: AugmentationProcess,
                                       rank_tol: float = 1e-10
                                       ) -> EmpiricalDecomposition:
    """Empirical route evaluated on the exact data marginal.

    Uses every data point once, weighted by ``p_x``; the empirical operator
    then coincides with the population operator, which pins down the
    large-N limit of :func:`empirical_decomposition` without sampling noise.
    """
    indices = np.arange(process.n_x)
    return _empirical_from_weights(process, indices, process.p_x.mass.copy(),
                                   rank_tol)


def near_optimal_encoder(empirical: EmpiricalDecomposition, d: int,
                         decomposition: SpectralDecomposition | None = None
                         ) -> Encoder:
    """Encoder whose rows are the top ``d`` empirical eigenfunctions."""
    if not (1 <= d <= empirical.rank):
        raise ValidationError(
            f"d must lie in [1, empirical rank={empirical.rank}], got {d}"
        )
    return build_average_encoder(
        empirical.process, empirical.phi_bar[:, :d].T, decomposition
    )


def empirical_ratio_trace(encoder: Encoder,
                          empirical: EmpiricalDecomposition) -> float:
    """Ratio trace under the empirical inner products of a sample."""
    sampled = encoder.psi_hat[:, empirical.sample_indices]
    F_hat = (sampled * empirical.weights[None, :]) @ sampled.T
    G_hat = (encoder.phi_hat * empirical.p_a_hat[None, :]) @ encoder.phi_hat.T
    eigs = np.linalg.eigvalsh(0.5 * (G_hat + G_hat.T))
    if eigs[0] <= 0 or eigs[-1] / eigs[0] > _CONDITION_LIMIT:
        raise RankDeficiencyError(
            "empirical G is numerically singular for this encoder and sample"
        )
    return float(np.trace(np.linalg.solve(G_hat, F_hat)))


def save_encoder(path, encoder: Encoder) -> None:
    """Write the table with a one-line ``d a_size`` header, 17 digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{encoder.d} {encoder.process.n_a}\n")
        for row in encoder.phi_hat:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def load_encoder(path, process: AugmentationProcess,
                 decomposition: SpectralDecomposition | None = None) -> Encoder:
    """Read a table written by :func:`save_encoder` and rebuild the encoder."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValidationError(f"bad encoder header {header!r}")
        d, a_size = int(header[0]), int(header[1])
        rows = [[float(tok) for tok in line.split(",")]
                for line in fh if line.strip()]
    table = np.array(rows)
    if table.shape != (d, a_size):
        raise ValidationError(
            f"encoder body has shape {table.shape}, header says ({d}, {a_size})"
        )
    return build_average_encoder(process, table, decomposition)
