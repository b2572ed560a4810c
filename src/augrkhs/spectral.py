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
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .exceptions import ValidationError
from .processes import AugmentationProcess, HypercubeConfig

DEFAULT_RANK_TOL = 1e-10
_TIE_TOL = 1e-10
_ORTHONORMALITY_TOL = 1e-8
_DUALITY_TOL = 1e-8
_DUALITY_FLOOR = 1e-6  # duality is only certified above this eigenvalue
_BLOCK_ENTRIES = 4096  # entries per block of rows an export formats at once
# |X| x |X| arrays verify_integral_identity holds at once, besides one
# |A| x |X| array of the table's size
RESIDUAL_ARRAYS = 4


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
    ``f`` may hold one function per column.  ``C^T`` is the process's
    ``conditional_transpose``, built once: on a sparse table its row-major
    product adds the same terms in the same order as the column-major
    ``C.T`` would, so the result is the same to the bit.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[0] != process.n_x:
        raise ValidationError(
            f"function has length {f.shape[0]}, data space has {process.n_x}"
        )
    weighted = f * process.p_x.mass if f.ndim == 1 else f * process.p_x.mass[:, None]
    return np.asarray(process.conditional_transpose @ weighted)


def apply_gamma(process: AugmentationProcess, f: np.ndarray) -> np.ndarray:
    """Conditional expectation of a data-space function given the augmentation.

    ``(Gamma f)(a) = sum_x f(x) p(x|a)``, the joint product of
    :func:`apply_joint` divided by ``p_a``.
    """
    out = apply_joint(process, f)
    out /= process.p_a.mass if out.ndim == 1 else process.p_a.mass[:, None]
    return out


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


class _Once:
    """A value computed on its first read, once.

    ``once()`` returns ``compute()``; what that returned or raised is kept,
    and every later read returns it or raises it again, with the traceback
    of the first failure, so tracebacks do not grow with the reads.
    """

    def __init__(self, compute):
        self._compute = compute
        self._result = None  # (value, error, traceback) once computed

    def __call__(self):
        if self._result is None:
            try:
                self._result = (self._compute(), None, None)
            except Exception as exc:
                self._result = (None, exc, exc.__traceback__)
            self._compute = None  # what the computation held is not needed
        value, error, tb = self._result
        if error is not None:
            raise error.with_traceback(tb)
        return value


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Weighted spectral system of the augmentation operator pair.

    ``lambdas`` descend from 1; column ``i`` of ``psi`` / ``phi`` holds the
    ``i``-th eigenfunction on the data / augmentation space.  Columns are
    orthonormal under the respective marginal-weighted inner products and
    tied to each other by duality.  ``process`` is the process they belong
    to; every function that reads a decomposition takes the process from it.

    ``phi`` is a property served by the holder ``_phi``, an :class:`_Once`
    that :func:`decompose` gives: it forms ``phi`` and runs its checks on
    the first read and keeps the result.  A ``dataclasses.replace`` copy
    shares its source's holder.
    """

    lambdas: np.ndarray
    psi: np.ndarray
    rank_tol: float
    process: AugmentationProcess
    _phi: _Once = field(repr=False)  # (phi, checked duality residual)

    @property
    def rank(self) -> int:
        """Number of retained eigenpairs, the constant included."""
        return self.lambdas.size

    @property
    def phi(self) -> np.ndarray:
        """Augmentation eigenfunctions; raises if their checks failed."""
        return self._phi()[0]

    @property
    def checked_duality_residual(self) -> float:
        """:func:`duality_residual` as measured by ``phi``'s checks.

        Reading it reads ``phi``.  It belongs to the ``psi`` that
        :func:`decompose` gave, also on a copy with another ``psi``.
        """
        return self._phi()[1]

    def eigenvalue(self, index: int) -> float:
        """``lambda_index`` with 1-based indexing; zero beyond the rank."""
        if index < 1:
            raise ValidationError(f"eigenvalue index must be >= 1, got {index}")
        return float(self.lambdas[index - 1]) if index <= self.rank else 0.0

    def h_norm_sq(self, coefficients: np.ndarray) -> float:
        """Squared norm ``sum u_i^2 / lambda_i`` of ``sum u_i psi_i``."""
        u = np.asarray(coefficients, dtype=float)
        return float(np.sum(u * u / self.lambdas))


def _flipped(psi: np.ndarray) -> np.ndarray:
    """Columns of ``psi`` whose largest-magnitude entry is negative.

    The largest-magnitude entry is ``argmax(|psi|, axis=0)``, which takes
    the first row on ties in ``|psi|``.
    """
    lead = np.argmax(np.abs(psi), axis=0)
    return psi[lead, np.arange(psi.shape[1])] < 0


def _fix_signs(psi, phi):
    """Scale every ``psi`` column so its largest-magnitude entry is positive.

    The largest-magnitude entry is the first one on ties in ``|psi|``
    (:func:`_flipped`).  Each flipped column, and its paired ``phi`` column,
    is negated, so a ``0.0`` entry in it becomes ``-0.0``.
    """
    flip = _flipped(psi)
    psi[:, flip] = -psi[:, flip]
    phi[:, flip] = -phi[:, flip]


def _tie_order(lambdas, psi):
    """The column permutation that puts each degenerate block in
    lexicographic order of the ``psi`` columns; ``None`` when every block
    is in order.

    A block is a run within ``_TIE_TOL`` of its first eigenvalue.  Columns
    compare entry by entry from the first row as floats, so ``-0.0`` and
    ``0.0`` are equal, and equal columns keep their order.  The top block
    keeps the constant first and orders the rest.
    """
    lam = lambdas.tolist()
    order = np.arange(len(lam))
    start = 0
    while start < len(lam):
        stop = start + 1
        while stop < len(lam) and abs(lam[stop] - lam[start]) <= _TIE_TOL:
            stop += 1
        first = max(start, 1)  # the constant anchors the top
        if stop - first > 1:
            # lexsort's last key is its primary one
            order[first:stop] = first + np.lexsort(psi[::-1, first:stop])
        start = stop
    return None if np.array_equal(order, np.arange(order.size)) else order


def _order_ties(lambdas, psi, phi):
    """``(lambdas, psi, phi)`` permuted by :func:`_tie_order`, as C-ordered
    copies, or as they are when every block is in order."""
    order = _tie_order(lambdas, psi)
    if order is None:
        return lambdas, psi, phi
    return (lambdas[order], np.take(psi, order, axis=1),
            np.take(phi, order, axis=1))


def _gram_defect(f: np.ndarray, weights: np.ndarray) -> float:
    """Largest entry of ``|f^T diag(weights) f - I|``."""
    # W^T W with W = f sqrt(p) runs as one symmetric rank-k update
    w = f * np.sqrt(weights)[:, None]
    return float(np.max(np.abs(w.T @ w - np.eye(f.shape[1]))))


def _validate_decomposition(dec: SpectralDecomposition) -> None:
    """The checks of ``lambdas`` and ``psi``, which :func:`decompose` runs."""
    lam = dec.lambdas
    if lam.size and (lam.min() < -1e-10 or lam.max() > 1.0 + 1e-10):
        raise ValidationError(f"eigenvalues outside [0, 1]: {lam.min()}..{lam.max()}")
    if abs(dec.eigenvalue(1) - 1.0) > 1e-10:
        raise ValidationError(f"leading eigenvalue is {dec.eigenvalue(1)!r}, not 1")
    psi1 = dec.psi[:, 0]
    if np.max(np.abs(psi1 - psi1[0])) > 1e-8 or abs(psi1[0] - 1.0) > 1e-8:
        raise ValidationError("leading data eigenfunction is not the constant 1")
    if _gram_defect(dec.psi, dec.process.p_x.mass) > _ORTHONORMALITY_TOL:
        raise ValidationError("psi columns are not orthonormal under p_x")


def _check_phi(process, lambdas, psi, phi) -> float:
    """The checks of ``phi`` against the ``psi`` it pairs with; returns the
    duality residual they measured."""
    if _gram_defect(phi, process.p_a.mass) > _ORTHONORMALITY_TOL:
        raise ValidationError("phi columns are not orthonormal under p_a")
    worst = _duality_residual(process, lambdas, psi, phi)
    if worst > _DUALITY_TOL:
        raise ValidationError(f"duality residual {worst!r} exceeds {_DUALITY_TOL}")
    return worst


def duality_residual(dec: SpectralDecomposition) -> float:
    """Worst ``p_x``-norm of ``Gamma* phi_i / sqrt(lambda_i) - psi_i``.

    Taken over the certified pairs, ``lambda_i > 1e-6``; zero when none is.
    """
    return _duality_residual(dec.process, dec.lambdas, dec.psi, dec.phi)


def _duality_residual(process, lambdas, psi, phi) -> float:
    certified = lambdas > _DUALITY_FLOOR
    if not certified.any():
        return 0.0
    back = apply_gamma_star(process, phi[:, certified])
    back /= np.sqrt(lambdas[certified])[None, :]
    resid = back - psi[:, certified]
    p_x = process.p_x.mass
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
    ``psi`` holds the matching +-1 characters.  Returns
    ``(lambdas, psi, form_phi)``: ``form_phi()`` applies
    ``phi = Gamma psi / sqrt(lambda)`` through the stored table, so duality
    holds by construction.  The constant (``S`` empty, ``lambda = 1``)
    comes first; every column pair is sign-fixed.
    """
    bits = _subset_bits(process.hypercube.d_x)
    law = _subset_law(process.hypercube, bits)
    order = np.argsort(-law, kind="stable")
    order = order[law[order] > rank_tol]
    lambdas = law[order]
    # chi_S(x) is -1 to the number of coordinates of S where x is -1
    chi = 1.0 - 2.0 * (((1 - bits) @ bits[order].T) % 2)
    # the signs are settled on the characters; a flipped column of phi is
    # divided by -sqrt(lambda), which gives exactly the negation _fix_signs
    # applies.  The tie order is not: a dense product's column results
    # depend on the column's position, so phi is formed in this order.
    sign = np.where(_flipped(chi), -1.0, 1.0)

    def form_phi():
        phi = apply_gamma(process, chi)
        phi /= sign * np.sqrt(lambdas)
        return phi

    return lambdas, chi * sign, form_phi


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
        Validated here: eigenvalues in [0, 1], leading pair
        ``(1, constant)``, ``psi`` orthonormal under ``p_x``.  ``phi`` is
        formed on its first read (on the law route; the SVD route has it
        already), and before it is first returned it is checked:
        orthonormal under ``p_a``, duality residual below 1e-8.  A cell that
        reads only ``lambdas`` and ``psi`` never pays for ``phi``.
    """
    if process.hypercube is not None:
        lambdas, psi, form_phi = _walsh_engine(process, rank_tol)
        order = _tie_order(lambdas, psi)
        if order is not None:
            lambdas, psi = lambdas[order], np.take(psi, order, axis=1)
            law_order_phi = form_phi

            def form_phi():
                return np.take(law_order_phi(), order, axis=1)
    else:
        lambdas, psi, phi = _order_ties(*_spectral_engine(
            process.conditional, np.sqrt(process.p_x.mass),
            np.sqrt(process.p_a.mass), rank_tol))

        def form_phi():
            return phi
    psi.setflags(write=False)
    lambdas.setflags(write=False)

    def checked_phi():
        phi = form_phi()
        phi.setflags(write=False)
        return phi, _check_phi(process, lambdas, psi, phi)

    dec = SpectralDecomposition(lambdas=lambdas, psi=psi, rank_tol=rank_tol,
                                process=process, _phi=_Once(checked_phi))
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

    With the default test vectors (the identity) it holds at most
    ``RESIDUAL_ARRAYS`` (4) arrays of ``|X| x |X|`` entries at once, and
    one ``|A| x |X|`` array, the size of the table, on the operator route:
    each residual is reduced in place and dropped before the next product
    is formed.
    """
    F = np.asarray(np.eye(process.n_x) if test_vectors is None
                   else test_vectors, dtype=float)
    if F.ndim == 1:
        F = F[:, None]
    op_route = apply_gamma_star(process, apply_gamma(process, F))
    weighted = F * process.p_x.mass[:, None]
    del F
    kernel_route = kernel_x(process) @ weighted
    op_route -= kernel_route
    residual = float(np.max(np.abs(op_route, out=op_route)))
    del op_route
    if decomposition is not None:
        spectral_route = ((decomposition.psi * decomposition.lambdas)
                          @ decomposition.psi.T) @ weighted
        spectral_route -= kernel_route
        residual = max(residual, float(np.max(np.abs(spectral_route,
                                                     out=spectral_route))))
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


def _write_table(fh, header: str, M: np.ndarray) -> None:
    """Write ``header`` and the rows of ``M`` as CSV, floats as ``.17g``.

    Rows go out a block of about ``_BLOCK_ENTRIES`` entries at a time, one
    ``write`` per block.  Within a block each distinct value is formatted
    once: values are keyed by their int64 bit patterns, so ``-0.0`` and
    ``0.0`` stay apart (the former is written ``-0``).
    """
    fh.write(header + "\n")
    rows = max(1, _BLOCK_ENTRIES // M.shape[1])
    for start in range(0, M.shape[0], rows):
        block = np.ascontiguousarray(M[start:start + rows], dtype=np.float64)
        bits, inverse = np.unique(block.view(np.int64).ravel(),
                                  return_inverse=True)
        text = np.array([f"{v:.17g}" for v in bits.view(np.float64).tolist()],
                        dtype=object)
        cells = text[inverse.reshape(block.shape)].tolist()
        fh.write("".join(",".join(row) + "\n" for row in cells))


def export_decomposition(decomposition: SpectralDecomposition,
                         out_dir, stem: str = "decomposition") -> dict[str, str]:
    """Write lambda/psi/phi CSV files, eigenfunctions as columns.

    Floats are written as ``f"{v:.17g}"``, so they read back exactly and
    ``-0.0`` is written ``-0``.  Each file is streamed in blocks of rows
    (see :func:`_write_table`) and replaces its target atomically.
    """
    paths = {}
    for name, M in (("lambdas", decomposition.lambdas[:, None]),
                    ("psi", decomposition.psi), ("phi", decomposition.phi)):
        header = ("lambda" if name == "lambdas" else
                  ",".join(f"{name}_{i + 1}" for i in range(M.shape[1])))
        path = os.path.join(out_dir, f"{stem}_{name}.csv")
        with _replacing(path) as fh:
            _write_table(fh, header, M)
        paths[name] = path
    return paths
