"""Conditional-expectation operators, the data kernel, and their exact spectra.

Functions cross the table ``p(a|x)`` through the operators of this module,
which the other modules call rather than multiply by the table themselves:
:func:`apply_joint` takes a data-space function through the joint law,
:func:`apply_gamma` divides that by ``p_a``, and :func:`apply_gamma_star`
averages an augmentation-space function under ``p(a|x)``.  The data kernel
``K_X`` is kept as a plain matrix, an independent route that
:func:`verify_integral_identity` checks the operators and a spectrum against.
The operators multiply by the table and its ``.T``, and ``processes``
forms ``K_X`` and the SVD route's joint table; only the operand choice of
:func:`_duality_residual` asks here how a table is stored.  A product with a
CSR table runs scipy's CSR kernels, so ``scipy.sparse`` loads on the first
of them; the SVD route makes such a table dense with numpy.

The spectral decomposition of a hypercube masking process comes from its
subset law: the eigenfunctions are the Walsh characters
``chi_S(x) = prod_{i in S} x_i`` and the eigenvalues are
``lambda_S = P(M cap S = empty) (1 - 2q)^(2|S|)`` for the masked set ``M``
and the flip probability ``q``, because each scheme is invariant under a
joint sign flip of ``x`` and ``a`` while ``p_x`` is uniform.  Every other
process goes through one SVD of the symmetrized joint table, which yields
the eigenvalues together with both eigenfunction families and their duality
at once: a custom table, or the sample process of ``N`` draws
(:func:`processes.sample_process`) that the empirical route of ``encoders``
decomposes.  The constant pair at ``lambda = 1`` is known exactly, so it is
deflated from the table before that SVD and put first.

Both engines, the law's and the SVD's, return ``(lambdas, psi, form_phi)``:
sign-fixed pairs above ``_RANK_TOL`` in descending order, with ``phi`` formed
by ``form_phi()`` (the law's from the table when first read, the SVD's
already formed).  :func:`decompose` picks the engine by ``process.hypercube``
and orders the degenerate blocks of either in one step.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ValidationError
from .processes import (RANDOM_SCHEMES, AugmentationProcess, HypercubeConfig,
                        _joint_table, _kernel_x, _replacing, _row_blocks,
                        _subset_bits)

_RANK_TOL = 1e-10  # eigenvalues at or below it are dropped
_TIE_TOL = 1e-10
_ORTHONORMALITY_TOL = 1e-8
_DUALITY_TOL = 1e-8
_DUALITY_FLOOR = 1e-6  # duality is only certified above this eigenvalue
_BLOCK_ENTRIES = 4096  # entries per block of rows an export formats at once
_PERMUTE_BLOCK_ENTRIES = 2**16  # entries per block the tie permutation moves
# rows per block the orthonormality check sums; its products slow down as
# their blocks get thinner, so the block is set in rows, not entries
_GRAM_BLOCK_ROWS = 512
# |X| x |X| arrays verify_integral_identity holds at once, besides one
# |A| x |X| array of the table's size
RESIDUAL_ARRAYS = 4


def kernel_x(process: AugmentationProcess) -> np.ndarray:
    """Data-space kernel ``K_X(x1,x2) = sum_a p(a|x1) p(a|x2) / p_a(a)``.

    Symmetric and positive semidefinite under the ``p_x`` weighting.  Read
    from the table directly, not through :func:`apply_gamma`, because
    :func:`verify_integral_identity` checks the operator route against it.
    """
    return _kernel_x(process)


def apply_joint(process: AugmentationProcess, f: np.ndarray) -> np.ndarray:
    """Joint law applied to a data-space function, ``sum_x f(x) p(a|x) p_x(x)``.

    The product ``C^T (f p_x)`` that :func:`apply_gamma` divides by ``p_a``;
    ``f`` may hold one function per column.  ``C^T`` is the table's ``.T``:
    a view of a dense table, or a sparse one's transpose, made once on the
    table's arrays without a copy.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[0] != process.n_x:
        raise ValidationError(
            f"function has length {f.shape[0]}, data space has {process.n_x}"
        )
    weighted = f * process.p_x if f.ndim == 1 else f * process.p_x[:, None]
    return np.asarray(process.conditional.T @ weighted)


def apply_gamma(process: AugmentationProcess, f: np.ndarray) -> np.ndarray:
    """Conditional expectation of a data-space function given the augmentation.

    ``(Gamma f)(a) = sum_x f(x) p(x|a)``, the joint product of
    :func:`apply_joint` divided by ``p_a``.
    """
    out = apply_joint(process, f)
    out /= process.p_a if out.ndim == 1 else process.p_a[:, None]
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
        """Worst ``p_x``-norm of ``Gamma* phi_i / sqrt(lambda_i) - psi_i``
        over the pairs with ``lambda_i > 1e-6``, as measured by ``phi``'s
        checks; zero when no pair is that large.

        Reading it reads ``phi``.  It belongs to the ``psi`` that
        :func:`decompose` gave, also on a copy with another ``psi``.
        """
        return self._phi()[1]

    def eigenvalue(self, index: int) -> float:
        """``lambda_index`` with 1-based indexing; zero beyond the rank."""
        if index < 1:
            raise ValidationError(f"eigenvalue index must be >= 1, got {index}")
        return float(self.lambdas[index - 1]) if index <= self.rank else 0.0


def _check_d(decomposition: SpectralDecomposition, d: int) -> None:
    """The one check of a ``d`` that reads the top ``d`` eigenpairs: it
    must lie in ``[1, rank]``."""
    if not (1 <= d <= decomposition.rank):
        raise ValidationError(
            f"d must lie in [1, rank={decomposition.rank}], got {d}")


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


def _permute_columns(M: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``M[:, order]``, written over ``M`` a block of rows at a time, so
    one block is copied, not the array; returns ``M``.  A permutation
    copies values, so the bits are those ``np.take`` gives."""
    for rows in _row_blocks(M.shape, _PERMUTE_BLOCK_ENTRIES):
        M[rows] = M[rows].take(order, axis=1)
    return M


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


def _gram_defect(f: np.ndarray, weights: np.ndarray) -> float:
    """Largest entry of ``|f^T diag(weights) f - I|``.

    The Gram matrix is the first block's ``W^T W`` (one symmetric rank-k
    update) plus that of each further block of rows of
    ``W = f sqrt(weights)``, so ``f`` is never copied whole, and 1 is
    subtracted on its diagonal at the end: no identity is formed beside it.
    The sum runs in another order than one product over all rows would, so
    the defect may differ from that product's at rounding level.
    """
    sqrt_w = np.sqrt(weights)
    gram = None
    for rows in _row_blocks(f.shape, _GRAM_BLOCK_ROWS * f.shape[1]):
        w = f[rows] * sqrt_w[rows, None]
        if gram is None:
            gram = w.T @ w
        else:
            gram += w.T @ w
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(np.max(np.abs(gram, out=gram)))


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
    if _gram_defect(dec.psi, dec.process.p_x) > _ORTHONORMALITY_TOL:
        raise ValidationError("psi columns are not orthonormal under p_x")


def _check_phi(process, lambdas, psi, phi) -> float:
    """The checks of ``phi`` against the ``psi`` it pairs with; returns the
    duality residual they measured."""
    if _gram_defect(phi, process.p_a) > _ORTHONORMALITY_TOL:
        raise ValidationError("phi columns are not orthonormal under p_a")
    worst = _duality_residual(process, lambdas, psi, phi)
    if worst > _DUALITY_TOL:
        raise ValidationError(f"duality residual {worst!r} exceeds {_DUALITY_TOL}")
    return worst


def _duality_residual(process, lambdas, psi, phi) -> float:
    """Worst ``p_x``-norm of ``Gamma* phi_i / sqrt(lambda_i) - psi_i`` over
    the pairs with ``lambda_i > _DUALITY_FLOOR``.

    A sparse table takes ``phi`` itself when every pair is certified: the
    gather of the columns would be a column-major copy, which scipy copies
    again to row-major, two arrays the size of ``phi`` for the same
    product.  A dense table keeps the column-major gather even then: a
    dense product's bits may depend on its operand's order.
    """
    certified = lambdas > _DUALITY_FLOOR
    if not certified.any():
        return 0.0
    whole = certified.all() and process.is_sparse
    back = apply_gamma_star(process, phi if whole else phi[:, certified])
    back /= np.sqrt(lambdas[certified])[None, :]
    resid = back - psi[:, certified]
    p_x = process.p_x
    return float(np.sqrt(np.max(np.sum(resid * resid * p_x[:, None], axis=0))))


def _spectral_engine(process: AugmentationProcess):
    """Weighted spectrum of a process's table: the one SVD route.

    With ``sqrt_wx = sqrt(p_x)`` and ``sqrt_wa = sqrt(p_a)``, and since each
    row of ``p(a|x)`` sums to 1, ``(1, sqrt_wa, sqrt_wx)`` is an exact
    singular triple of ``B(a,x) = p(a|x) sqrt_wx(x) / sqrt_wa(a)``, the
    constant pair at ``lambda = 1``.  It is subtracted before the SVD and
    put first as ``(1, 1, 1)``; the rest is truncated at ``_RANK_TOL``, which
    also drops the rounding-level value the deflated pair leaves behind, and
    every column pair is sign-fixed.  Returns ``(lambdas, psi, form_phi)``
    with ``psi = V / sqrt_wx``; ``form_phi()`` returns ``phi = U / sqrt_wa``,
    which the SVD has formed already.
    """
    sqrt_wx, sqrt_wa = np.sqrt(process.p_x), np.sqrt(process.p_a)
    B = _joint_table(process)
    B -= np.outer(sqrt_wa, sqrt_wx)
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    lambdas = s * s
    rank = int(np.count_nonzero(lambdas > _RANK_TOL))
    lambdas = np.concatenate(([1.0], lambdas[:rank]))
    psi = np.hstack((np.ones((sqrt_wx.size, 1)), Vt[:rank].T / sqrt_wx[:, None]))
    phi = np.hstack((np.ones((sqrt_wa.size, 1)), U[:, :rank] / sqrt_wa[:, None]))
    _fix_signs(psi, phi)
    return lambdas, psi, lambda: phi


def _subset_law(config: HypercubeConfig, bits: np.ndarray) -> np.ndarray:
    """``lambda_S = P(M cap S = empty) (1 - 2q)^(2|S|)`` for every subset.

    Random masks miss ``S`` with probability ``(1 - m)^|S|`` for the
    per-coordinate mask probability ``m = config.mask_prob``; a block of
    length ``r`` misses it at the share of the ``d_x - r + 1`` block
    positions that hold no coordinate of ``S``.
    """
    size = bits.sum(axis=1)
    if config.scheme in RANDOM_SCHEMES:
        miss = (1.0 - config.mask_prob) ** size
    else:
        r, n_pos = config.block_length, config.d_x - config.block_length + 1
        covered = np.cumsum(np.pad(bits, ((0, 0), (1, 0))), axis=1)
        inside = covered[:, r:] - covered[:, :n_pos]  # |S cap block| per start
        miss = np.count_nonzero(inside == 0, axis=1) / n_pos
    return miss * (1.0 - 2.0 * config.flip_prob) ** (2 * size)


def _characters(d: int, subsets: np.ndarray) -> np.ndarray:
    """``2^d x len(subsets)`` table of the Walsh characters ``chi_S(x)``.

    Row ``x`` and each entry of ``subsets`` are codes in the bit order of
    :func:`_subset_bits`: ``x`` marks its ``+1`` coordinates, ``S`` its
    members.  ``chi_S(x)`` is -1 to the number of coordinates of ``S``
    where ``x`` is -1, the parity of ``~x & S``; it is exactly +-1.
    """
    minus = ~np.arange(2**d)  # x's -1 coordinates, with higher bits set
    odd = np.bitwise_count(minus[:, None] & subsets) & 1
    return 1.0 - 2.0 * odd


def _walsh_engine(process: AugmentationProcess):
    """Spectrum of a hypercube process from its subset law, without an SVD.

    Eigenvalues above ``_RANK_TOL`` are sorted descending (stably);
    ``psi`` holds the matching +-1 characters.  Returns
    ``(lambdas, psi, form_phi)``: ``form_phi()`` applies
    ``phi = Gamma psi / sqrt(lambda)`` through the stored table, so duality
    holds by construction.  The constant (``S`` empty, ``lambda = 1``)
    comes first; every column pair is sign-fixed.
    """
    d_x = process.hypercube.d_x
    law = _subset_law(process.hypercube, _subset_bits(d_x))
    order = np.argsort(-law, kind="stable")
    order = order[law[order] > _RANK_TOL]
    lambdas = law[order]
    psi = _characters(d_x, order)
    # the signs are settled on the characters; a flipped column of phi is
    # divided by -sqrt(lambda), which gives exactly the negation _fix_signs
    # applies.  The tie order is not: a dense product's column results
    # depend on the column's position, so phi is formed in this order.
    sign = np.where(_flipped(psi), -1.0, 1.0)
    psi *= sign

    def form_phi():
        # the characters are formed again rather than kept beside psi, which
        # holds them signed and, once decompose orders the ties, permuted
        phi = apply_gamma(process, _characters(d_x, order))
        phi /= sign * np.sqrt(lambdas)
        return phi

    return lambdas, psi, form_phi


def decompose(process: AugmentationProcess) -> SpectralDecomposition:
    """Exact weighted spectral decomposition of the operator pair.

    A hypercube process (``process.hypercube`` set) takes its eigenvalues
    from the subset law and its data eigenfunctions from the Walsh
    characters, with ``phi_i = Gamma psi_i / sqrt(lambda_i)``.  Every other
    process takes them from the SVD of the symmetrized joint table
    ``B(a,x) = p(a,x) / sqrt(p_a(a) p_x(x))`` with its constant pair
    deflated, whose singular values squared are the shared eigenvalues, with
    ``phi_i = U_i / sqrt(p_a)`` and ``psi_i = V_i / sqrt(p_x)``.  Eigenvalues
    at or below ``_RANK_TOL`` (1e-10) are dropped.  Either engine returns
    ``(lambdas, psi, form_phi)``; then one step, :func:`_tie_order`, puts
    each degenerate block in lexicographic order of ``psi``, permuting
    ``lambdas`` and ``psi`` at once and ``phi`` when it is first read.
    ``psi`` and ``phi`` are permuted in place, a block of rows at a time
    (:func:`_permute_columns`), so the first read of ``phi`` holds ``phi``
    and one block of its rows, not a second ``phi``.

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
    engine = _walsh_engine if process.hypercube is not None else _spectral_engine
    lambdas, psi, form_phi = engine(process)
    order = _tie_order(lambdas, psi)
    if order is not None:
        lambdas = lambdas[order]
        _permute_columns(psi, order)
        engine_phi = form_phi

        def form_phi():
            return _permute_columns(engine_phi(), order)
    psi.setflags(write=False)
    lambdas.setflags(write=False)

    def checked_phi():
        phi = form_phi()
        phi.setflags(write=False)
        return phi, _check_phi(process, lambdas, psi, phi)

    dec = SpectralDecomposition(lambdas=lambdas, psi=psi, process=process,
                                _phi=_Once(checked_phi))
    _validate_decomposition(dec)
    return dec


def verify_integral_identity(decomposition: SpectralDecomposition) -> float:
    """Max-norm residual of the operator and spectral routes against ``K_X``.

    On ``decomposition.process``, ``Gamma* Gamma`` via the conditional
    tables and the reconstruction ``psi diag(lambda) psi^T`` are each
    applied to every point indicator (the identity's columns, which cover
    every function by linearity) and compared with integration against
    ``K_X`` under the ``p_x`` weight.  Returns the largest entrywise
    residual, which the contract bounds by 1e-10.

    It holds at most ``RESIDUAL_ARRAYS`` (4) arrays of ``|X| x |X|`` entries
    at once, and one ``|A| x |X|`` array, the size of the table, on the
    operator route: each residual is reduced in place and dropped before
    the next product is formed.
    """
    process = decomposition.process
    op_route = apply_gamma_star(process, apply_gamma(process,
                                                     np.eye(process.n_x)))
    # integrating against K_X under p_x scales column j by p_x(j)
    kernel_route = kernel_x(process)
    kernel_route *= process.p_x
    op_route -= kernel_route
    residual = float(np.max(np.abs(op_route, out=op_route)))
    del op_route
    spectral_route = ((decomposition.psi * decomposition.lambdas)
                      @ decomposition.psi.T)
    spectral_route *= process.p_x
    spectral_route -= kernel_route
    return max(residual, float(np.max(np.abs(spectral_route,
                                             out=spectral_route))))


def _write_table(fh, header: str, M: np.ndarray) -> None:
    """Write ``header`` and the rows of ``M`` as CSV, floats as ``.17g``.

    Rows go out a block of about ``_BLOCK_ENTRIES`` entries at a time, one
    ``write`` per block.  Within a block each distinct value is formatted
    once: values are keyed by their int64 bit patterns, so ``-0.0`` and
    ``0.0`` stay apart (the former is written ``-0``).
    """
    fh.write(header + "\n")
    for rows in _row_blocks(M.shape, _BLOCK_ENTRIES):
        block = np.ascontiguousarray(M[rows], dtype=np.float64)
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
