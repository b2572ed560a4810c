"""Encoders on the augmentation space and their quality measures.

An encoder is a ``d``-row function table on the augmentation space; its
average encoder on the data space is the row-wise conditional expectation.
Quality is captured by the covariance pair (F on data, G on augmentations),
the ratio trace ``Tr(G^-1 F)``, and the trace gap, the worst residual
between partial eigenvalue sums and the best ratio trace achievable inside
the encoder's span.  The empirical route replaces the data marginal with an
N-sample empirical measure, which is itself a process (the sample process of
:func:`processes.sample_process`); :func:`decompose` solves it like any
other.  The empirical route takes the population once, as a decomposition:
:func:`empirical_decomposition` samples its process and keeps it, and the
near-optimal encoder is the sample's top eigenfunctions extended by zero to
the augmentations the sample never reaches, judged against that population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexity import partial_trace
from .exceptions import RankDeficiencyError, ValidationError
from .processes import AugmentationProcess, sample_process
from .spectral import (SpectralDecomposition, _check_d, apply_gamma_star,
                       decompose)

_GRAM_RANK_TOL = 1e-10
_CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class Encoder:
    """A full-rank ``d x |A|`` table with its derived average encoder.

    ``psi_hat`` row ``i`` is the conditional expectation of ``phi_hat`` row
    ``i`` given the data point, computed exactly from the process tables.
    The encoder is judged against ``decomposition``, whose process it is
    defined on.
    """

    phi_hat: np.ndarray
    psi_hat: np.ndarray
    decomposition: SpectralDecomposition

    def __post_init__(self):
        self.phi_hat.setflags(write=False)
        self.psi_hat.setflags(write=False)

    @property
    def d(self) -> int:
        return self.phi_hat.shape[0]

    @property
    def process(self) -> AugmentationProcess:
        return self.decomposition.process


@dataclass(frozen=True, eq=False)
class CovariancePair:
    """Weighted Grams ``F`` (data side) and ``G`` (augmentation side)."""

    F: np.ndarray
    G: np.ndarray
    gamma_g: float


def gram_a(process: AugmentationProcess, phi_hat: np.ndarray) -> np.ndarray:
    """Augmentation-side Gram under the ``p_a`` weight."""
    return (phi_hat * process.p_a[None, :]) @ phi_hat.T


def gram_x(process: AugmentationProcess, psi_hat: np.ndarray) -> np.ndarray:
    """Data-side Gram under the ``p_x`` weight."""
    return (psi_hat * process.p_x[None, :]) @ psi_hat.T


def build_average_encoder(decomposition: SpectralDecomposition,
                          phi_hat) -> Encoder:
    """Wrap a raw table on ``decomposition.process`` as an :class:`Encoder`
    with its average encoder.

    Raises :class:`RankDeficiencyError` naming the deficient singular value
    when the rows are not linearly independent under the ``p_a`` weighting.
    """
    process = decomposition.process
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
    psi_hat = apply_gamma_star(process, phi_hat.T).T
    return Encoder(phi_hat=phi_hat, psi_hat=psi_hat,
                   decomposition=decomposition)


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


def optimal_encoder(decomposition: SpectralDecomposition, d: int) -> Encoder:
    """Encoder whose rows are the top ``d`` augmentation eigenfunctions."""
    _check_d(decomposition, d)
    return build_average_encoder(decomposition, decomposition.phi[:, :d].T)


@dataclass(frozen=True, eq=False)
class EmpiricalDecomposition:
    """Spectral system of the empirical operator built from N samples.

    ``decomposition`` is :func:`decompose` of the sample process, so its
    ``psi`` lives on the distinct sampled points and its ``phi`` on
    ``kept``, the augmentations of ``process`` that the sample reaches;
    both are orthonormal under the sample's marginals.  ``population`` is
    the decomposition of ``process``, the process that ``sample_indices``
    were drawn from.
    """

    population: SpectralDecomposition
    sample_indices: np.ndarray
    kept: np.ndarray
    decomposition: SpectralDecomposition

    @property
    def process(self) -> AugmentationProcess:
        return self.population.process

    @property
    def lambdas_bar(self) -> np.ndarray:
        return self.decomposition.lambdas

    @property
    def rank(self) -> int:
        return self.decomposition.rank


def empirical_decomposition(population: SpectralDecomposition, N: int,
                            seed: int) -> EmpiricalDecomposition:
    """Spectral system from ``N`` i.i.d. draws of the data marginal of
    ``population.process``: the decomposition of
    :func:`processes.sample_process`'s sample."""
    sample, draws, kept = sample_process(population.process, N, seed)
    return EmpiricalDecomposition(population=population, sample_indices=draws,
                                  kept=kept, decomposition=decompose(sample))


def near_optimal_encoder(empirical: EmpiricalDecomposition, d: int) -> Encoder:
    """Encoder whose rows are the top ``d`` empirical eigenfunctions, zero on
    the augmentations the sample never reaches, judged against the
    population decomposition the sample was drawn from."""
    if not (1 <= d <= empirical.rank):
        raise ValidationError(
            f"d must lie in [1, empirical rank={empirical.rank}], got {d}"
        )
    phi_hat = np.zeros((d, empirical.process.n_a))
    phi_hat[:, empirical.kept] = empirical.decomposition.phi[:, :d].T
    return build_average_encoder(empirical.population, phi_hat)
