"""Finite augmentation processes over discrete data and augmentation spaces.

An :class:`AugmentationProcess` is its arrays: the data marginal ``p_x``,
the conditional table ``p(a|x)`` and the augmentation marginal ``p_a``,
which it derives from them.  Everything downstream (kernels, spectra,
complexity measures, encoders) is computed exactly from these tables, so
construction is strict about probability invariants and deterministic about
enumeration order: hypercube points are enumerated lexicographically with
coordinate values ordered ``-1 < 0 < +1``, and augmentations with zero
marginal mass are pruned (:func:`_prune`).  A point is enumerated once, as
an integer code: a sign point as the bits of :func:`_subset_bits`, which
also order the Walsh characters, and a block-masked point as the base-3
code of :func:`_block_support`.

A build makes each table once, in its own form: the flip schemes dense,
random_mask and block_mask as a :class:`CSRTable` (compressed sparse rows),
three numpy arrays.  :func:`_finalize_storage` alone picks the stored form:
dense up to ``DENSE_ENTRIES`` entries, above that CSR below 25% density.
This module alone reads that form: other modules multiply by the table
(``table @ M``, ``table.T @ M``) or call its readers here, the row sums
(:func:`_row_sums`, :func:`_implicit_mass`), :func:`_kernel_x` and
:func:`_joint_table`.
``scipy.sparse`` is imported only for the first product with a CSR table,
so a sweep that never multiplies by its table, such as ``kappa``, never
loads it.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import BudgetExceededError, ValidationError

CONSTRUCTION_TOL = 1e-12
USER_INPUT_TOL = 1e-9
SPARSE_DENSITY = 0.25
# a table of at most this many entries (512 KiB) is stored dense: BLAS
# multiplies it faster than scipy's CSR kernels, up to a crossover measured
# above 46,656 and below 279,936 entries
DENSE_ENTRIES = 2**16
DEFAULT_BUDGET = 10**8
# entries of a dense table that one step of a pass over its rows reads
BLOCK_ENTRIES = 2**16

SCHEMES = ("random_mask", "block_mask", "block_mask_flip", "random_mask_flip")
FLIP_SCHEMES = ("block_mask_flip", "random_mask_flip")
RANDOM_SCHEMES = ("random_mask", "random_mask_flip")  # one mask per coordinate


def _check_budget(shape: tuple, budget: int, what: str) -> None:
    """The one budget check: a :class:`BudgetExceededError` naming ``what``
    if an array of ``shape`` would hold more than ``budget`` entries.  A side
    is an int or ``(factor, base, exponent)``, ``factor * base**exponent``:
    a product 64 bits longer than the budget is not formed, and the message
    writes its sides as powers."""
    sides = [tuple(map(int, side)) if isinstance(side, tuple)
             else (int(side), 1, 1) for side in shape]
    # the product is at least 2 to this power
    if sum(f.bit_length() - 1 + e * (b.bit_length() - 1)
           for f, b, e in sides) >= int(budget).bit_length() + 64:
        powers = [str(f) if b == 1 else f"{f}*{b}^{e}".removeprefix("1*")
                  for f, b, e in sides]
        raise BudgetExceededError(f"{what} needs {' x '.join(powers)} entries, "
                                  f"exceeding the budget of {budget}")
    lengths = [f * b**e for f, b, e in sides]
    entries = math.prod(lengths)
    if entries > budget:
        raise BudgetExceededError(
            f"{what} needs {' x '.join(map(str, lengths))} = {entries} entries, "
            f"exceeding the budget of {budget}")


def _check_integer(value, name: str) -> None:
    """Refuse a ``value`` that is not an integer, or is a bool, naming it,
    before numpy reads it as a size."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def _marginal(mass: np.ndarray) -> np.ndarray:
    """``mass``, a float array the caller owns, made read-only once it is
    checked to be a probability vector over ``len(mass)`` points."""
    if mass.ndim != 1:
        raise ValidationError(f"mass has shape {mass.shape}, expected a vector")
    if mass.size < 1:
        raise ValidationError(f"space size must be >= 1, got {mass.size}")
    # each check is written so that a NaN fails it
    smallest = float(mass.min())
    if not smallest >= 0:
        raise ValidationError(
            f"probabilities must be nonnegative, got {smallest!r}")
    total = float(mass.sum())
    if not abs(total - 1.0) <= CONSTRUCTION_TOL:
        raise ValidationError(f"probabilities sum to {total!r}, not 1")
    mass.setflags(write=False)
    return mass


@dataclass(frozen=True, eq=False)
class CSRTable:
    """A read-only table in compressed sparse rows (CSR).

    Row ``i`` stores the entries ``data[indptr[i]:indptr[i + 1]]`` at the
    columns ``indices[indptr[i]:indptr[i + 1]]``, in increasing column
    order and each column once, as scipy's canonical CSR form holds them;
    the index arrays are int32 unless a size needs int64, as scipy picks.
    The entries are read with numpy.  ``csr_array``, the scipy array over
    the same three arrays, is built without a copy on the first product
    with the table (``table @ M``, which runs scipy's CSR kernel); it is
    the one place ``scipy.sparse`` is imported.  ``T``, the transpose, is
    scipy's CSC view of the same three arrays, also made once, on first use.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        for array in (self.data, self.indices, self.indptr):
            array.setflags(write=False)

    def entry_rows(self) -> np.ndarray:
        """Row index of each stored entry, in storage order."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self, points=None) -> np.ndarray:
        """The rows ``points`` (all rows when ``None``), in that order, as a
        dense array.  Each entry is added to a zero, as scipy's conversion
        adds it."""
        points = np.arange(self.shape[0]) if points is None else points
        counts = np.diff(self.indptr)[points]
        # the stored entries of the rows, each row's run in storage order
        entries = np.arange(counts.sum()) + np.repeat(
            self.indptr[points] - (np.cumsum(counts) - counts), counts)
        out = np.zeros((len(points), self.shape[1]))
        out[np.repeat(np.arange(len(points)), counts),
            self.indices[entries]] += self.data[entries]
        return out

    @cached_property
    def csr_array(self):
        import scipy.sparse as sp

        return sp.csr_array((self.data, self.indices, self.indptr),
                            shape=self.shape, copy=False)

    @cached_property
    def T(self):
        """The ``shape[1] x shape[0]`` transpose, without a copy: a product
        with it adds each output's terms in increasing row order of the
        table, as a CSR copy of the transpose would."""
        return self.csr_array.T

    def __matmul__(self, other):
        return self.csr_array @ other


def _csr(data, cols, counts, shape: tuple[int, int]) -> CSRTable:
    """The :class:`CSRTable` of ``shape`` whose rows hold ``counts`` entries
    each: ``data`` and their columns ``cols``, row after row."""
    index = (np.int32 if max(data.size, *shape) <= np.iinfo(np.int32).max
             else np.int64)
    indptr = np.zeros(shape[0] + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    return CSRTable(np.asarray(data, dtype=float), cols.astype(index),
                    indptr, tuple(shape))


def _from_dense(table: np.ndarray) -> CSRTable:
    """The nonzero entries of a dense table as a :class:`CSRTable`."""
    rows, cols = np.nonzero(table)
    return _csr(table[rows, cols], cols,
                np.bincount(rows, minlength=table.shape[0]), table.shape)


def derive_marginal(conditional, p_x: np.ndarray) -> np.ndarray:
    """Marginal over augmentations, ``p_a = conditional^T p_x``.

    This is the single derivation path: a process derives its ``p_a`` here
    from its stored table and ``p_x``, so recomputing the marginal from any
    process, a sample's included, reproduces it bit for bit.  A CSR table
    adds ``p(a|x) p_x(x)`` to each ``a`` in storage order, the order scipy's
    ``C^T @ p_x`` adds them in.
    """
    if isinstance(conditional, CSRTable):
        return np.bincount(conditional.indices,
                           conditional.data * p_x[conditional.entry_rows()],
                           conditional.shape[1])
    return np.asarray(conditional).T @ p_x


@dataclass(frozen=True, eq=False)
class AugmentationProcess:
    """A data marginal, the exact table over it and the derived marginal.

    Attributes
    ----------
    p_x : ndarray
        Data marginal over ``|X|`` points; strictly positive on every point.
    conditional : ndarray or CSRTable
        ``|X| x |A|`` table of ``p(a|x)``; any other type raises
        :class:`ValidationError`.  A build stores it as a :class:`CSRTable`
        when it holds more than ``DENSE_ENTRIES`` entries below 25% density.
    hypercube : HypercubeConfig or None
        The masking scheme a hypercube process was built from, whose
        spectrum has a closed form; ``None`` for every other process.
    p_a : ndarray
        Not an argument: the augmentation marginal ``conditional^T p_x``
        over ``|A|`` points, derived at construction by
        :func:`derive_marginal`; strictly positive once pruned.

    ``p_x`` is stored as a read-only float copy, and a dense table as a
    read-only float view, so the caller's own arrays stay writeable.  The
    view shares the caller's memory when the table is already float:
    writing to that array afterwards changes the process.
    """

    p_x: np.ndarray
    conditional: object
    hypercube: HypercubeConfig | None = None
    p_a: np.ndarray = field(init=False)

    def __post_init__(self):
        p_x = _marginal(np.array(self.p_x, dtype=float))
        object.__setattr__(self, "p_x", p_x)
        cond = self.conditional
        if isinstance(cond, np.ndarray):
            # a read-only view: the caller's array stays writeable, and a
            # table of |X| x |A| entries is not copied
            cond = np.asarray(cond, dtype=float).view()
            cond.setflags(write=False)
        elif not isinstance(cond, CSRTable):
            raise ValidationError("conditional must be an ndarray or a "
                                  f"CSRTable, got {type(cond).__name__}")
        object.__setattr__(self, "conditional", cond)
        if len(cond.shape) != 2 or cond.shape[0] != p_x.size:
            raise ValidationError(f"conditional has shape {cond.shape}, "
                                  f"expected {p_x.size} rows")
        smallest = (cond.data if isinstance(cond, CSRTable)
                    else cond).min(initial=0.0)
        row_sums = _row_sums(cond)
        if not smallest >= 0:
            raise ValidationError("conditional probabilities must be "
                                  f"nonnegative, got {float(smallest)!r}")
        bad = np.nonzero(~(np.abs(row_sums - 1.0) <= CONSTRUCTION_TOL))[0]
        if bad.size:
            raise ValidationError(
                f"conditional rows {bad.tolist()} do not sum to 1 "
                f"(sums {row_sums[bad].tolist()})"
            )
        if p_x.min() <= 0:
            raise ValidationError(
                "p_x must be strictly positive; drop zero-mass data points"
            )
        p_a = _marginal(derive_marginal(cond, p_x))
        object.__setattr__(self, "p_a", p_a)
        if p_a.min() <= 0:
            raise ValidationError(
                "zero-mass augmentations present; they must be pruned"
            )
        if self.hypercube is not None and p_x.size != 2**self.hypercube.d_x:
            raise ValidationError(
                f"{p_x.size} data points do not form the hypercube of "
                f"d_x={self.hypercube.d_x}"
            )

    @property
    def n_x(self) -> int:
        return self.p_x.size

    @property
    def n_a(self) -> int:
        return self.p_a.size

    @property
    def is_sparse(self) -> bool:
        return isinstance(self.conditional, CSRTable)

    def conditional_dense(self, points=None) -> np.ndarray:
        """The rows ``points`` (all rows when ``None``) of the conditional
        table, in that order, as a dense array."""
        if self.is_sparse:
            return self.conditional.toarray(points)
        return self.conditional if points is None else self.conditional[points]


def _row_blocks(shape, entries: int):
    """Slices of consecutive rows of an array of ``shape``, each of
    ``max(1, entries // shape[1])`` rows, the last one fewer when they do
    not divide ``shape[0]``."""
    rows = max(1, entries // shape[1])
    return (slice(start, start + rows) for start in range(0, shape[0], rows))


def _row_sums(table, term=None, by_column=None) -> np.ndarray:
    """Per row of a dense table or a :class:`CSRTable`, the sum over its
    stored entries of ``term(c, w)``, ``c`` the entry and ``w`` its
    column's value in ``by_column``, or of the entries when ``term`` is
    ``None``.  A dense table is summed a block of about ``BLOCK_ENTRIES``
    entries of rows at a time, each row on its own, so a row has the bits
    the whole table's sum gives it; a CSR table by ``np.bincount``, which
    adds each row's entries in storage order, as scipy's row sum does.
    """
    if isinstance(table, CSRTable):
        values = (table.data if term is None
                  else term(table.data, by_column[table.indices]))
        return np.bincount(table.entry_rows(), values, table.shape[0])
    out = np.empty(table.shape[0])
    for rows in _row_blocks(table.shape, BLOCK_ENTRIES):
        block = table[rows]
        out[rows] = (block if term is None
                     else term(block, by_column)).sum(axis=1)
    return out


def _implicit_mass(table, p_a: np.ndarray) -> np.ndarray:
    """Per row, the ``p_a`` mass of the columns it does not store: 1 less
    that of its stored entries in CSR, 0 in a dense row, which stores all."""
    if not isinstance(table, CSRTable):
        return np.zeros(table.shape[0])
    return 1.0 - _row_sums(table, lambda c, w: w, p_a)


def _kernel_x(process: AugmentationProcess) -> np.ndarray:
    """``K_X = C diag(1 / p_a) C^T`` as a new dense ``|X| x |X|`` array."""
    C, inv_pa = process.conditional, 1.0 / process.p_a
    if isinstance(C, CSRTable):
        return (C.csr_array.multiply(inv_pa) @ C.T).toarray()
    return (C * inv_pa) @ C.T


def _joint_table(process: AugmentationProcess) -> np.ndarray:
    """``B(a,x) = p(a|x) sqrt(p_x(x)) / sqrt(p_a(a))`` as a new dense
    ``|A| x |X|`` array: a CSR table's entries are scaled as
    ``(c sqrt(p_x)) (1 / sqrt(p_a))``, the products scipy's sparse route
    took, and written into zeros."""
    C = process.conditional
    sqrt_wx, sqrt_wa = np.sqrt(process.p_x), np.sqrt(process.p_a)
    if not isinstance(C, CSRTable):
        return (C * sqrt_wx[:, None] / sqrt_wa).T
    rows = C.entry_rows()
    B = np.zeros(C.shape[::-1])
    B[C.indices, rows] = (C.data * sqrt_wx[rows]) * (1.0 / sqrt_wa)[C.indices]
    return B


@dataclass(frozen=True, eq=False)
class HypercubeConfig:
    """Masking scheme on the sign hypercube ``{-1,+1}^d_x``.

    ``alpha`` is the mask ratio in ``(0, 1]``.  Flip schemes flip each
    surviving coordinate independently with probability ``alpha / 2``;
    random schemes mask each coordinate independently with probability
    ``mask_prob``.
    """

    d_x: int
    alpha: float
    scheme: str

    def __post_init__(self):
        _check_integer(self.d_x, "d_x")
        if self.d_x < 1:
            raise ValidationError(f"d_x must be >= 1, got {self.d_x}")
        if (not isinstance(self.alpha, numbers.Real)
                or isinstance(self.alpha, bool)):
            raise ValidationError(
                f"alpha must be a real number, got {self.alpha!r}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValidationError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.scheme not in SCHEMES:
            raise ValidationError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}"
            )

    @property
    def flip_prob(self) -> float:
        return self.alpha / 2.0 if self.scheme in FLIP_SCHEMES else 0.0

    @property
    def mask_prob(self) -> float:
        """Per-coordinate mask probability of a random scheme."""
        return self.alpha / 2.0 if self.scheme == "random_mask_flip" else self.alpha

    @property
    def block_length(self) -> int:
        """Masked block length ``ceil(alpha * d_x)`` for block schemes.

        At least 1: a positive ``alpha`` masks some coordinate.
        """
        return max(1, int(np.ceil(self.alpha * self.d_x - 1e-12)))


def _subset_bits(d: int) -> np.ndarray:
    """``2^d x d`` 0/1 table: row ``i``, column ``j`` is bit ``d-1-j`` of ``i``.

    Row ``i`` is the ``i``-th sign point in lexicographic order, a 1 marking
    a ``+1`` coordinate; read as a subset, it marks the coordinates in it.
    """
    return (np.arange(2**d)[:, None] >> np.arange(d - 1, -1, -1)) & 1


def _finalize_storage(conditional):
    """The stored form of a dense table or a :class:`CSRTable`: sparse
    (CSR) when it holds more than ``DENSE_ENTRIES`` entries and its density
    is below 25%, dense otherwise."""
    sparse = isinstance(conditional, CSRTable)
    entries = math.prod(conditional.shape)
    nonzero = np.count_nonzero(conditional.data if sparse else conditional)
    if entries <= DENSE_ENTRIES or nonzero / entries >= SPARSE_DENSITY:
        return conditional.toarray() if sparse else conditional
    return conditional if sparse else _from_dense(conditional)


def _prune(table, p_x: np.ndarray):
    """The one pruning rule: ``(table, reached)``, the columns of a dense
    table or a :class:`CSRTable` that ``p_x`` reaches (:func:`derive_marginal`
    positive) and the boolean mask of them.  A CSR table keeps each row's
    entry order."""
    reached = derive_marginal(table, p_x) > 0.0
    if reached.all():
        return table, reached
    if not isinstance(table, CSRTable):
        return table[:, reached], reached
    keep = reached[table.indices]
    return _csr(table.data[keep], np.cumsum(reached)[table.indices[keep]] - 1,
                np.bincount(table.entry_rows()[keep], minlength=table.shape[0]),
                (table.shape[0], np.count_nonzero(reached))), reached


def _assemble(p_x, table, hypercube: HypercubeConfig | None = None
              ) -> tuple[AugmentationProcess, np.ndarray]:
    """The process of ``table`` over ``p_x``: zero-mass augmentations pruned
    (:func:`_prune`) and the storage chosen.

    Returns ``(process, reached)``, ``reached`` the boolean mask of the
    table's columns that survive pruning.
    """
    table, reached = _prune(table, p_x)
    return AugmentationProcess(p_x, _finalize_storage(table), hypercube), reached


def _coordinate_channel(config: HypercubeConfig) -> np.ndarray:
    """One coordinate's channel, rows x in (-1,+1), cols a in (-1,0,+1):
    masked with probability ``m``, else flipped with ``q``, else kept."""
    m, q = config.mask_prob, config.flip_prob
    keep, flip = (1.0 - m) * (1.0 - q), (1.0 - m) * q
    return np.array([[keep, m, flip], [flip, m, keep]])


def _fill_power(table: np.ndarray, channel: np.ndarray) -> None:
    """Write into ``table`` the Kronecker power of ``channel`` of its shape,
    one multiply per entry, as ``np.kron`` takes it.

    Each power is formed in the first entries of ``table``'s row-major
    buffer, from the one below it there: row ``n`` of the lower power makes
    the rows ``(n, i)`` of the next, ``lower[n, m] * channel[i, j]`` at
    column ``(m, j)``.  Those rows start at ``channel.size`` times row
    ``n``'s offset, so the rows are multiplied out in blocks from the last
    back, each ending at ``stop`` and starting at row
    ``ceil(stop / channel.size)``: no block is written over a row not yet
    read.  Row 0 makes its rows over itself, so it is copied first.  No
    array of a lower power's size is made.
    """
    flat = table.reshape(-1, copy=False)
    flat[:channel.size] = channel.ravel()
    rows, cols = channel.shape
    while rows < table.shape[0]:
        lower = flat[:rows * cols].reshape(rows, cols)
        slots = flat[:rows * cols * channel.size].reshape(
            rows, channel.shape[0], cols, channel.shape[1])
        stop = rows
        while stop:
            start = -(-stop // channel.size) if stop > 1 else 0
            block = lower[start:stop] if start else lower[:1].copy()
            for (i, j), c in np.ndenumerate(channel):
                np.multiply(block, c, out=slots[start:stop, i, :, j])
            stop = start
        rows, cols = rows * channel.shape[0], cols * channel.shape[1]


def _csr_power(channel: np.ndarray, d: int) -> CSRTable:
    """The ``d``-fold Kronecker power of ``channel`` in CSR, as scipy's
    ``kron`` stores it.  Both rows of a coordinate channel hold the same
    values mirrored, so every row of the power holds as many entries: the
    power of the ``2 x k`` step of the nonzeros, which :func:`_fill_power`
    multiplies out, at the columns the same recursion gives."""
    nonzero = channel != 0
    step = channel[nonzero].reshape(channel.shape[0], -1)
    step_cols = np.nonzero(nonzero)[1].reshape(step.shape)
    shape = (channel.shape[0] ** d, channel.shape[1] ** d)
    data = np.empty((shape[0], step.shape[1] ** d))
    _fill_power(data, step)
    cols = step_cols
    for _ in range(d - 1):
        cols = (cols[:, None, :, None] * channel.shape[1]
                + step_cols[None, :, None, :]).reshape(
                    cols.shape[0] * step.shape[0], -1)
    return _csr(data.ravel(), cols.ravel(),
                np.full(shape[0], data.shape[1]), shape)


def _build_product_scheme(config: HypercubeConfig, budget: int) -> AugmentationProcess:
    """The process of a random-mask scheme, whose table is the ``d_x``-fold
    Kronecker power of its one-coordinate channel.

    A dense power is multiplied out inside the final ``2^d_x x 3^d_x``
    array (:func:`_fill_power`), so the build holds the table and no lower
    power beside it.
    """
    d = config.d_x
    _check_budget(((1, 2, d), (1, 3, d)), budget,
                  f"the {config.scheme} table at d_x={d}")
    channel = _coordinate_channel(config)
    # a channel without zeros (random_mask_flip) gives a table without
    # zeros, built dense; random_mask's is built CSR
    if channel.all():
        conditional = np.empty((2**d, 3**d))
        _fill_power(conditional, channel)
    else:
        conditional = _csr_power(channel, d)
    p_x = np.full(2**d, 1.0 / 2**d)
    return _assemble(p_x, conditional, config)[0]


def _place(d: int) -> np.ndarray:
    """Base-3 place values of ``d`` coordinates, the first most significant."""
    return 3 ** np.arange(d - 1, -1, -1)


def _block_support(d: int, r: int) -> np.ndarray:
    """Sorted codes of the block-masked points, ``r`` zeros from each start
    and signs elsewhere: a point's code reads its digits ``a + 1`` at
    :func:`_place`, so codes sort as the points do lexicographically."""
    place, free = _place(d), 2 * _subset_bits(d - r)  # survivor digits 0, 2
    return np.sort(np.concatenate([
        free[:, :start] @ place[:start] + place[start:start + r].sum()
        + free[:, start:] @ place[start + r:]
        for start in range(d - r + 1)]))


def _build_block_scheme(config: HypercubeConfig, budget: int) -> AugmentationProcess:
    d, r = config.d_x, config.block_length
    n_pos = d - r + 1
    # sizes are checked before anything is enumerated
    _check_budget(((1, 2, d), (n_pos, 2, d - r)), budget,
                  f"the {config.scheme} table at d_x={d}")
    n_x, n_a = 2**d, n_pos * 2 ** (d - r)
    X = 2 * _subset_bits(d) - 1
    a_codes = _block_support(d, r)
    if config.scheme == "block_mask":
        masked = np.repeat(X[:, None, :] + 1, n_pos, axis=1)
        for start in range(n_pos):
            masked[:, start, start:start + r] = 1
        # the n_pos blocks of a row mask different coordinates, so its
        # entries fall on distinct columns
        cols = np.searchsorted(a_codes, masked @ _place(d))
        conditional = _csr(np.full(cols.size, 1.0 / n_pos),
                           np.sort(cols, axis=1).ravel(),
                           np.full(n_x, n_pos), (n_x, n_a))
    else:  # block_mask_flip
        q = config.flip_prob
        free = d - r
        A = a_codes[:, None] // _place(d) % 3 - 1  # each point's coordinates
        # a masked coordinate of a point is 0, so the product sums the signs
        # of the survivors only: agreeing ones less disagreeing ones
        agree = (X @ A.T + free) / 2.0
        k = free - agree  # disagreeing survivor coordinates
        conditional = (q**k) * ((1.0 - q) ** agree) / n_pos
    p_x = np.full(n_x, 1.0 / n_x)
    return _assemble(p_x, conditional, config)[0]


def build_hypercube(config: HypercubeConfig,
                    budget: int = DEFAULT_BUDGET) -> AugmentationProcess:
    """Construct a hypercube masking process by exact enumeration.

    Parameters
    ----------
    config : HypercubeConfig
        Dimension, mask ratio, and scheme.
    budget : int
        Maximum admissible number of conditional-table entries; exceeded
        budgets raise :class:`BudgetExceededError` naming the counts.

    Returns
    -------
    AugmentationProcess
        ``p_x`` uniform over the ``2^d_x`` sign vectors; the conditional
        matches the scheme exactly, with unreachable augmentations pruned.
        Its ``hypercube`` field is ``config``.
    """
    if config.scheme in RANDOM_SCHEMES:
        return _build_product_scheme(config, budget)
    return _build_block_scheme(config, budget)


def build_custom(x_size: int, a_size: int, p_x, triples
                 ) -> tuple[AugmentationProcess, np.ndarray]:
    """Build a process from explicit ``(x_index, a_index, prob)`` triples.

    Row sums must equal 1 within ``1e-9``; rows are then renormalized
    exactly.  Duplicate triples accumulate.  The table is then assembled as
    a hypercube table is, zero-mass augmentations pruned and the storage
    chosen; the second return value maps the surviving column positions
    back to the original ``a`` indices.
    """
    _check_integer(x_size, "x_size")
    _check_integer(a_size, "a_size")
    if not (x_size >= 1 and a_size >= 1):
        raise ValidationError(f"space sizes must be >= 1, got {x_size}, {a_size}")
    p_x = np.asarray(p_x, dtype=float)
    if p_x.shape != (x_size,):
        raise ValidationError(f"p_x has shape {p_x.shape}, expected ({x_size},)")
    # each check is written so that a NaN fails it
    if not p_x.min(initial=np.inf) > 0:
        raise ValidationError("p_x must be strictly positive")
    total = float(p_x.sum())
    if not abs(total - 1.0) <= USER_INPUT_TOL:
        raise ValidationError(f"p_x sums to {total!r}, not 1 within {USER_INPUT_TOL}")
    p_x = p_x / total

    conditional = np.zeros((x_size, a_size))
    for x_i, a_i, prob in triples:
        # numpy would read a float index as an error and a bool as a mask
        if not all(isinstance(i, numbers.Integral) and not isinstance(i, bool)
                   for i in (x_i, a_i)):
            raise ValidationError(
                f"triple index ({x_i!r}, {a_i!r}) is not a pair of integers")
        if not (0 <= x_i < x_size and 0 <= a_i < a_size):
            raise ValidationError(f"triple index ({x_i}, {a_i}) out of range")
        if not (isinstance(prob, numbers.Real) and prob >= 0):
            raise ValidationError(f"probability {prob!r} at ({x_i}, {a_i}) "
                                  "is not a nonnegative number")
        conditional[x_i, a_i] += prob
    row_sums = conditional.sum(axis=1)
    bad = np.nonzero(~(np.abs(row_sums - 1.0) <= USER_INPUT_TOL))[0]
    if bad.size:
        raise ValidationError(
            f"conditional rows {bad.tolist()} sum to {row_sums[bad].tolist()}, "
            f"not 1 within {USER_INPUT_TOL}"
        )
    conditional /= row_sums[:, None]
    process, reached = _assemble(p_x, conditional)
    return process, np.nonzero(reached)[0]


def sample_process(process: AugmentationProcess, N: int, seed: int
                   ) -> tuple[AugmentationProcess, np.ndarray, np.ndarray]:
    """The empirical measure of ``N`` i.i.d. draws of ``p_x``, as a process.

    The draws are ``default_rng(seed).choice(n_x, N, p=p_x)``.  The sample's
    data points are the distinct draws in index order, weighted by their
    count over ``N``; its table holds their rows of ``p(a|x)`` on the
    augmentations they reach, dense whatever its density, because the one
    dense SVD that decomposes it would convert a sparse one.  Returns
    ``(sample, draws, kept)``, ``kept`` holding the population indices of the
    sample's augmentations.
    """
    _check_integer(N, "N")
    if N < 1:
        raise ValidationError(f"N must be >= 1, got {N}")
    rng = np.random.default_rng(seed)
    draws = rng.choice(process.n_x, size=N, p=process.p_x)
    points, counts = np.unique(draws, return_counts=True)
    p_x = counts / N
    rows, reached = _prune(process.conditional_dense(points), p_x)
    # not through _assemble, which could store it CSR: the SVD that
    # decomposes the sample would make it dense again
    return AugmentationProcess(p_x, rows), draws, np.nonzero(reached)[0]


def load_process(path) -> tuple[AugmentationProcess, np.ndarray]:
    """Read a custom process from the text format.

    Line 1 is ``x_size a_size``, line 2 the ``p_x`` vector, and every further
    line an ``x_index a_index prob`` triple (0-based).  ``#`` starts a
    comment.  Returns the process and the pruning remap, as
    :func:`build_custom` does.  A line of the wrong length or with a token
    its field cannot read raises :class:`ValidationError` naming the line.
    """
    with open(path, "r", encoding="utf-8") as fh:  # (number, tokens) per line
        lines = [(n, tokens) for n, raw in enumerate(fh, 1)
                 if (tokens := raw.split("#", 1)[0].split())]
    if len(lines) < 2:
        raise ValidationError("process file needs a size line and a p_x line")

    def read(line, kinds, what):
        number, tokens = line
        try:
            if len(tokens) != len(kinds):
                raise ValueError(f"expected {len(kinds)} fields")
            return [kind(t) for kind, t in zip(kinds, tokens)]
        except ValueError as exc:
            raise ValidationError(
                f"line {number}: bad {what} {' '.join(tokens)!r} ({exc})"
            ) from exc

    x_size, a_size = read(lines[0], (int, int), "size line")
    p_x = read(lines[1], (float,) * len(lines[1][1]), "p_x line")
    triples = [read(line, (int, int, float), "triple line")
               for line in lines[2:]]
    return build_custom(x_size, a_size, p_x, triples)


@contextlib.contextmanager
def _replacing(path):
    """Text handle on a temporary file that replaces ``path`` on success.

    The file, ``<path>.<16 hex digits>.tmp``, is written next to ``path``
    and moved over it with ``os.replace``, so readers and concurrent writers
    never see a partial file; on error the temporary file is removed.  The
    digits are 8 bytes of ``os.urandom``, what ``secrets.token_hex(8)``
    returns, without the OpenSSL import that ``secrets`` brings.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
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


def dump_process(path, process: AugmentationProcess) -> None:
    """Write a process in the text format read by :func:`load_process`.

    One triple per nonzero entry, in row-major order, read from the stored
    entries: a sparse table is never made dense.  It replaces ``path``
    atomically (:func:`_replacing`).
    """
    C = process.conditional if process.is_sparse else _from_dense(
        process.conditional)
    rows, cols, values = C.entry_rows(), C.indices, C.data
    keep = values != 0
    with _replacing(path) as fh:
        fh.write(f"{process.n_x} {process.n_a}\n")
        fh.write(" ".join(f"{v:.17g}" for v in process.p_x) + "\n")
        fh.writelines(f"{i} {j} {v:.17g}\n" for i, j, v in zip(
            rows[keep].tolist(), cols[keep].tolist(), values[keep].tolist()))
