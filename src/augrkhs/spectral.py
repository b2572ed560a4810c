"""Conditional-expectation operators, the data kernel, and their exact spectra.

Functions cross the table ``p(a|x)`` through the operators of this module,
which the other modules call rather than multiply by the table themselves:
:func:`apply_joint` takes a data-space function through the joint law,
:func:`apply_gamma` divides that by ``p_a``, and :func:`apply_gamma_star`
averages an augmentation-space function under ``p(a|x)``.  The data kernel
``K_X`` is kept as a plain matrix, an independent route that
:func:`verify_integral_identity` checks the operators against.

The spectral decomposition of a hypercube masking process comes from its
subset law: the eigenfunctions are the Walsh characters
``chi_S(x) = prod_{i in S} x_i`` and the eigenvalues are
``lambda_S = P(M cap S = empty) (1 - 2q)^(2|S|)`` for the masked set ``M``
and the flip probability ``q``, because each scheme is invariant under a
joint sign flip of ``x`` and ``a`` while ``p_x`` is uniform.  Every other
process (custom tables, the empirical route) goes through one SVD of the
symmetrized joint table, which yields the eigenvalues together with both
eigenfunction families and their duality at once.  The constant pair at
``lambda = 1`` is known exactly, so it is deflated from the table before
that SVD and put first.
"""

from __future__ import annotations

import contextlib
import os
import secrets
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import ValidationError
from .processes import AugmentationProcess, HypercubeConfig

DEFAULT_RANK_TOL = 1e-10
_TIE_TOL = 1e-10
_ORTHONORMALITY_TOL = 1e-8
_DUALITY_TOL = 1e-8
_DUALITY_FLOOR = 1e-6  # duality is only certified above this eigenvalue


def kernel_x(process: AugmentationProcess) -> np.ndarray:
    """Data-space kernel ``K_X(x1,x2) = sum_a p(a|x1) p(a|x2) / p_a(a)``.

    Symmetric and positive semidefinite under the ``p_x`` weighting.  Read
    from the table directly, not through :func:`apply_gamma`, because
    :func:`verify_integral_identity` checks the operator route against it.
    """
    C = process.conditional
    inv_pa = 1.0 / process.p_a.mass
    if sp.issparse(C):
        return (C.multiply(inv_pa) @ C.T).toarray()
    return (C * inv_pa) @ C.T


def apply_joint(process: AugmentationProcess, f: np.ndarray) -> np.ndarray:
    """Joint law applied to a data-space function, ``sum_x f(x) p(a|x) p_x(x)``.

    The product ``C^T (f p_x)`` that :func:`apply_gamma` divides by ``p_a``;
    ``f`` may hold one function per column.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[0] != process.n_x:
        raise ValidationError(
            f"function has length {f.shape[0]}, data space has {process.n_x}"
        )
    weighted = f * process.p_x.mass if f.ndim == 1 else f * process.p_x.mass[:, None]
    return np.asarray(process.conditional.T @ weighted)


def apply_gamma(process: AugmentationProcess, f: np.ndarray) -> np.ndarray:
    """Conditional expectation of a data-space function given the augmentation.

    ``(Gamma f)(a) = sum_x f(x) p(x|a)``, the joint product of
    :func:`apply_joint` divided by ``p_a``.
    """
    out = apply_joint(process, f)
    if out.ndim == 1:
        return out / process.p_a.mass
    return out / process.p_a.mass[:, None]


def apply_gamma_star(process: AugmentationProcess, g: np.ndarray) -> np.ndarray:
    """Conditional expectation of an augmentation-space function given the data.

    ``(Gamma* g)(x) = sum_a g(a) p(a|x)``; the adjoint of :func:`apply_gamma`
    with respect to the weighted inner products.
    """
    g = np.asarray(g, dtype=float)
    if g.shape[0] != process.n_a:
        raise ValidationError(
            f"function has length {g.shape[0]}, augmentation space has {process.n_a}"
        )
    return np.asarray(process.conditional @ g)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Weighted spectral system of the augmentation operator pair.

    ``lambdas`` descend from 1; column ``i`` of ``psi`` / ``phi`` holds the
    ``i``-th eigenfunction on the data / augmentation space.  Columns are
    orthonormal under the respective marginal-weighted inner products and
    tied to each other by duality.
    """

    lambdas: np.ndarray
    psi: np.ndarray
    phi: np.ndarray
    rank: int
    rank_tol: float
    process: AugmentationProcess

    def eigenvalue(self, index: int) -> float:
        """``lambda_index`` with 1-based indexing; zero beyond the rank."""
        if index < 1:
            raise ValidationError(f"eigenvalue index must be >= 1, got {index}")
        return float(self.lambdas[index - 1]) if index <= self.rank else 0.0

    def h_norm_sq(self, coefficients: np.ndarray) -> float:
        """Squared norm ``sum u_i^2 / lambda_i`` of ``sum u_i psi_i``."""
        u = np.asarray(coefficients, dtype=float)
        return float(np.sum(u * u / self.lambdas))


def _fix_signs(psi, phi):
    """Scale every ``psi`` column so its largest-magnitude entry is positive.

    The paired ``phi`` column is flipped along with it.
    """
    for i in range(psi.shape[1]):
        col = psi[:, i]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            psi[:, i] = -col
            phi[:, i] = -phi[:, i]


def _order_ties(lambdas, psi, phi):
    """Permute each degenerate block into lexicographic order of ``psi``.

    The top block keeps the constant first and orders the rest.
    """
    r = lambdas.size
    start = 0
    while start < r:
        stop = start + 1
        while stop < r and abs(lambdas[stop] - lambdas[start]) <= _TIE_TOL:
            stop += 1
        if stop - start > 1:
            first = 1 if start == 0 else start  # the constant anchors the top
            order = list(range(start, first)) + sorted(
                range(first, stop), key=lambda j: tuple(psi[:, j]))
            psi[:, start:stop] = psi[:, order]
            phi[:, start:stop] = phi[:, order]
            lambdas[start:stop] = lambdas[order]
        start = stop


def _validate_decomposition(dec: SpectralDecomposition) -> None:
    lam = dec.lambdas
    if lam.size and (lam.min() < -1e-10 or lam.max() > 1.0 + 1e-10):
        raise ValidationError(f"eigenvalues outside [0, 1]: {lam.min()}..{lam.max()}")
    if abs(dec.eigenvalue(1) - 1.0) > 1e-10:
        raise ValidationError(f"leading eigenvalue is {dec.eigenvalue(1)!r}, not 1")
    psi1 = dec.psi[:, 0]
    if np.max(np.abs(psi1 - psi1[0])) > 1e-8 or abs(psi1[0] - 1.0) > 1e-8:
        raise ValidationError("leading data eigenfunction is not the constant 1")
    p_x = dec.process.p_x.mass
    p_a = dec.process.p_a.mass
    gram_x = (dec.psi * p_x[:, None]).T @ dec.psi
    gram_a = (dec.phi * p_a[:, None]).T @ dec.phi
    eye = np.eye(dec.rank)
    if np.max(np.abs(gram_x - eye)) > _ORTHONORMALITY_TOL:
        raise ValidationError("psi columns are not orthonormal under p_x")
    if np.max(np.abs(gram_a - eye)) > _ORTHONORMALITY_TOL:
        raise ValidationError("phi columns are not orthonormal under p_a")
    worst = duality_residual(dec)
    if worst > _DUALITY_TOL:
        raise ValidationError(f"duality residual {worst!r} exceeds {_DUALITY_TOL}")


def duality_residual(dec: SpectralDecomposition) -> float:
    """Worst ``p_x``-norm of ``Gamma* phi_i / sqrt(lambda_i) - psi_i``.

    Taken over the certified pairs, ``lambda_i > 1e-6``; zero when none is.
    """
    certified = dec.lambdas > _DUALITY_FLOOR
    if not certified.any():
        return 0.0
    back = apply_gamma_star(dec.process, dec.phi[:, certified])
    back /= np.sqrt(dec.lambdas[certified])[None, :]
    resid = back - dec.psi[:, certified]
    p_x = dec.process.p_x.mass
    return float(np.sqrt(np.max(np.sum(resid * resid * p_x[:, None], axis=0))))


def _spectral_engine(conditional, sqrt_wx: np.ndarray, sqrt_wa: np.ndarray,
                     rank_tol: float):
    """Weighted spectrum of a conditional table: the one SVD route.

    ``conditional`` holds ``p(a|x)`` with one row per data point (sparse or
    dense), ``sqrt_wx`` and ``sqrt_wa`` the square roots of the data
    weights and of the augmentation weights they induce.  Since each row
    sums to 1, ``(1, sqrt_wa, sqrt_wx)`` is an exact singular triple of
    ``B(a,x) = p(a|x) sqrt_wx(x) / sqrt_wa(a)``, the constant pair at
    ``lambda = 1``.  It is subtracted before the SVD and put first as
    ``(1, 1, 1)``; the rest is truncated at ``rank_tol``, or at the SVD's
    rounding of zero if that is larger, and every column pair is sign-fixed.  Returns ``(lambdas, psi, phi)`` with
    ``psi = V / sqrt_wx``, ``phi = U / sqrt_wa``.
    """
    if sp.issparse(conditional):
        B = conditional.multiply(sqrt_wx[:, None]).multiply(1.0 / sqrt_wa).T.toarray()
    else:
        B = (conditional * sqrt_wx[:, None] / sqrt_wa).T
    B -= np.outer(sqrt_wa, sqrt_wx)
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    lambdas = s * s
    # at or below the SVD's rounding of zero, where the deflated pair lands,
    # whatever rank_tol says
    floor = (np.finfo(float).eps * max(B.shape)) ** 2
    rank = int(np.count_nonzero(lambdas > max(rank_tol, floor)))
    lambdas = np.concatenate(([1.0], lambdas[:rank]))
    psi = np.hstack((np.ones((sqrt_wx.size, 1)), Vt[:rank].T / sqrt_wx[:, None]))
    phi = np.hstack((np.ones((sqrt_wa.size, 1)), U[:, :rank] / sqrt_wa[:, None]))
    _fix_signs(psi, phi)
    return lambdas, psi, phi


def _subset_bits(d: int) -> np.ndarray:
    """``2^d x d`` 0/1 table: row ``i``, column ``j`` is bit ``d-1-j`` of ``i``.

    Row ``i`` is the ``i``-th sign point in lexicographic order, a 1 marking
    a ``+1`` coordinate; read as a subset, it marks the coordinates in it.
    """
    return (np.arange(2**d)[:, None] >> np.arange(d - 1, -1, -1)) & 1


def _subset_law(config: HypercubeConfig, bits: np.ndarray) -> np.ndarray:
    """``lambda_S = P(M cap S = empty) (1 - 2q)^(2|S|)`` for every subset.

    Random masks miss ``S`` with probability ``(1 - m)^|S|`` for the
    per-coordinate mask probability ``m`` (``alpha``, or ``alpha / 2`` with
    flips); a block of length ``r`` misses it at the share of the
    ``d_x - r + 1`` block positions that hold no coordinate of ``S``.
    """
    size = bits.sum(axis=1)
    if config.scheme == "random_mask":
        miss = (1.0 - config.alpha) ** size
    elif config.scheme == "random_mask_flip":
        miss = (1.0 - config.alpha / 2.0) ** size
    else:
        r, n_pos = config.block_length, config.d_x - config.block_length + 1
        covered = np.cumsum(np.pad(bits, ((0, 0), (1, 0))), axis=1)
        inside = covered[:, r:] - covered[:, :n_pos]  # |S cap block| per start
        miss = np.count_nonzero(inside == 0, axis=1) / n_pos
    return miss * (1.0 - 2.0 * config.flip_prob) ** (2 * size)


def _walsh_engine(process: AugmentationProcess, rank_tol: float):
    """Spectrum of a hypercube process from its subset law, without an SVD.

    Eigenvalues above ``rank_tol`` are sorted descending (stably);
    ``psi`` holds the matching +-1 characters and
    ``phi = Gamma psi / sqrt(lambda)`` is applied through the stored table,
    so duality holds by construction.  The constant (``S`` empty,
    ``lambda = 1``) comes first; every column pair is sign-fixed.
    """
    bits = _subset_bits(process.hypercube.d_x)
    law = _subset_law(process.hypercube, bits)
    order = np.argsort(-law, kind="stable")
    order = order[law[order] > rank_tol]
    lambdas = law[order]
    # chi_S(x) is -1 to the number of coordinates of S where x is -1
    psi = 1.0 - 2.0 * (((1 - bits) @ bits[order].T) % 2)
    phi = apply_gamma(process, psi) / np.sqrt(lambdas)
    _fix_signs(psi, phi)
    return lambdas, psi, phi


def decompose(process: AugmentationProcess,
              rank_tol: float = DEFAULT_RANK_TOL) -> SpectralDecomposition:
    """Exact weighted spectral decomposition of the operator pair.

    A hypercube process (``process.hypercube`` set) takes its eigenvalues
    from the subset law and its data eigenfunctions from the Walsh
    characters, with ``phi_i = Gamma psi_i / sqrt(lambda_i)``.  Every other
    process takes them from the SVD of the symmetrized joint table
    ``B(a,x) = p(a,x) / sqrt(p_a(a) p_x(x))`` with its constant pair
    deflated, whose singular values squared are the shared eigenvalues, with
    ``phi_i = U_i / sqrt(p_a)`` and ``psi_i = V_i / sqrt(p_x)``.  Eigenvalues
    at or below ``rank_tol`` are dropped, and each degenerate block is put
    in lexicographic order of ``psi``.

    Returns
    -------
    SpectralDecomposition
        Validated: eigenvalues in [0, 1], leading pair ``(1, constant)``,
        orthonormal columns, duality residual below 1e-8.
    """
    if process.hypercube is not None:
        lambdas, psi, phi = _walsh_engine(process, rank_tol)
    else:
        lambdas, psi, phi = _spectral_engine(
            process.conditional, np.sqrt(process.p_x.mass),
            np.sqrt(process.p_a.mass), rank_tol)
    _order_ties(lambdas, psi, phi)
    psi.setflags(write=False)
    phi.setflags(write=False)
    lambdas.setflags(write=False)
    dec = SpectralDecomposition(
        lambdas=lambdas, psi=psi, phi=phi, rank=lambdas.size,
        rank_tol=rank_tol, process=process,
    )
    _validate_decomposition(dec)
    return dec


def verify_integral_identity(process: AugmentationProcess,
                             decomposition: SpectralDecomposition | None = None,
                             test_vectors: np.ndarray | None = None) -> float:
    """Max-norm residual between the operator and kernel routes.

    Applies ``Gamma* Gamma`` to each test vector via the conditional tables
    and, independently, integrates against ``K_X`` under the ``p_x`` weight;
    when a decomposition is supplied its spectral reconstruction of the
    kernel is checked as well.  Returns the largest entrywise residual,
    which the contract bounds by 1e-10.
    """
    if test_vectors is None:
        test_vectors = np.eye(process.n_x)
    F = np.asarray(test_vectors, dtype=float)
    if F.ndim == 1:
        F = F[:, None]
    op_route = apply_gamma_star(process, apply_gamma(process, F))
    KX = kernel_x(process)
    kernel_route = KX @ (F * process.p_x.mass[:, None])
    residual = float(np.max(np.abs(op_route - kernel_route)))
    if decomposition is not None:
        spectral_kernel = (decomposition.psi * decomposition.lambdas) @ decomposition.psi.T
        spectral_route = spectral_kernel @ (F * process.p_x.mass[:, None])
        residual = max(residual, float(np.max(np.abs(spectral_route - kernel_route))))
    return residual


@contextlib.contextmanager
def _replacing(path: str):
    """Text handle on a temporary file that replaces ``path`` on success.

    The file is written next to ``path`` and moved over it with
    ``os.replace``, so readers and concurrent writers never see a partial
    file; on error the temporary file is removed.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    # os.open applies the umask, so the file gets the mode open() gives it
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def export_decomposition(decomposition: SpectralDecomposition,
                         out_dir, stem: str = "decomposition") -> dict[str, str]:
    """Write lambda/psi/phi CSV files, eigenfunctions as columns, 17 digits.

    Each file is streamed row by row and replaces its target atomically.
    """
    paths = {}
    lam_path = os.path.join(out_dir, f"{stem}_lambdas.csv")
    with _replacing(lam_path) as fh:
        fh.write("lambda\n")
        for v in decomposition.lambdas:
            fh.write(f"{v:.17g}\n")
    paths["lambdas"] = lam_path
    for name, M in (("psi", decomposition.psi), ("phi", decomposition.phi)):
        path = os.path.join(out_dir, f"{stem}_{name}.csv")
        with _replacing(path) as fh:
            fh.write(",".join(f"{name}_{i + 1}" for i in range(M.shape[1])) + "\n")
            for row in M:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        paths[name] = path
    return paths
