"""Finite augmentation processes over discrete data and augmentation spaces.

An :class:`AugmentationProcess` bundles a finite data space with its marginal
``p_x``, a finite augmentation space, and the conditional table ``p(a|x)``.
Everything downstream (kernels, spectra, complexity measures, encoders) is
computed exactly from these tables, so construction is strict about
probability invariants and deterministic about enumeration order: hypercube
points are enumerated lexicographically with coordinate values ordered
``-1 < 0 < +1``, and augmentations with zero marginal mass are pruned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .exceptions import BudgetExceededError, ValidationError

CONSTRUCTION_TOL = 1e-12
USER_INPUT_TOL = 1e-9
SPARSE_DENSITY = 0.25
DEFAULT_BUDGET = 10**8

SCHEMES = ("random_mask", "block_mask", "block_mask_flip", "random_mask_flip")
FLIP_SCHEMES = ("block_mask_flip", "random_mask_flip")

_SYMBOLS = np.frombuffer(b"-0+", dtype=np.uint8)  # bytes of -1, 0, +1


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """A finite set of points, optionally labelled for display."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ValidationError(f"space size must be >= 1, got {self.size}")
        if self.labels is not None and len(self.labels) != self.size:
            raise ValidationError(
                f"got {len(self.labels)} labels for a space of size {self.size}"
            )


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over a :class:`FiniteSpace`."""

    space: FiniteSpace
    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=float)
        object.__setattr__(self, "mass", mass)
        if mass.shape != (self.space.size,):
            raise ValidationError(
                f"mass has shape {mass.shape}, expected ({self.space.size},)"
            )
        if mass.min(initial=np.inf) < 0:
            raise ValidationError("probabilities must be nonnegative")
        total = float(mass.sum())
        if abs(total - 1.0) > CONSTRUCTION_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")
        mass.setflags(write=False)


def derive_marginal(conditional, p_x_mass: np.ndarray) -> np.ndarray:
    """Marginal over augmentations, ``p_a = conditional^T p_x``.

    This is the single derivation path used everywhere, so recomputing the
    marginal from a stored process reproduces it bit for bit.
    """
    if sp.issparse(conditional):
        return np.asarray(conditional.T @ p_x_mass).ravel()
    return np.asarray(conditional).T @ p_x_mass


@dataclass(frozen=True, eq=False)
class AugmentationProcess:
    """A finite data space, augmentation space, and exact conditional table.

    Attributes
    ----------
    x_space, a_space : FiniteSpace
        Data and augmentation spaces.
    p_x : Distribution
        Data marginal; strictly positive on every point.
    conditional : ndarray or scipy.sparse.csr_array
        ``|X| x |A|`` table of ``p(a|x)``; stored sparse when its density is
        below 25%.
    p_a : Distribution
        Derived augmentation marginal, strictly positive after pruning.
    hypercube : HypercubeConfig or None
        The masking scheme a hypercube process was built from, whose
        spectrum has a closed form; ``None`` for every other process.
    conditional_transpose : ndarray or scipy.sparse.csr_array
        The ``|A| x |X|`` transpose of ``conditional``, built on first use
        and kept for the life of the process: the ``.T`` view of a dense
        table, or a row-major copy of a sparse one (its ``.T`` would be a
        new column-major object on every access).  Its arrays are
        read-only.
    """

    x_space: FiniteSpace
    a_space: FiniteSpace
    p_x: Distribution
    conditional: object
    p_a: Distribution
    hypercube: HypercubeConfig | None = None

    def __post_init__(self):
        n_x, n_a = self.x_space.size, self.a_space.size
        cond = self.conditional
        if cond.shape != (n_x, n_a):
            raise ValidationError(
                f"conditional has shape {cond.shape}, expected ({n_x}, {n_a})"
            )
        if sp.issparse(cond):
            smallest = cond.data.min() if cond.nnz else 0.0
            row_sums = np.asarray(cond.sum(axis=1)).ravel()
        else:
            cond = np.asarray(cond, dtype=float)
            smallest = cond.min()
            row_sums = cond.sum(axis=1)
            cond.setflags(write=False)
        if smallest < 0:
            raise ValidationError("conditional probabilities must be nonnegative")
        bad = np.nonzero(np.abs(row_sums - 1.0) > CONSTRUCTION_TOL)[0]
        if bad.size:
            raise ValidationError(
                f"conditional rows {bad.tolist()} do not sum to 1 "
                f"(sums {row_sums[bad].tolist()})"
            )
        if self.p_x.mass.min() <= 0:
            raise ValidationError(
                "p_x must be strictly positive; drop zero-mass data points"
            )
        recomputed = derive_marginal(self.conditional, self.p_x.mass)
        if not np.array_equal(recomputed, self.p_a.mass):
            if np.max(np.abs(recomputed - self.p_a.mass)) > CONSTRUCTION_TOL:
                raise ValidationError("p_a is inconsistent with conditional and p_x")
        if self.p_a.mass.min() <= 0:
            raise ValidationError(
                "zero-mass augmentations present; they must be pruned"
            )
        if self.hypercube is not None and n_x != 2**self.hypercube.d_x:
            raise ValidationError(
                f"{n_x} data points do not form the hypercube of "
                f"d_x={self.hypercube.d_x}"
            )

    @property
    def n_x(self) -> int:
        return self.x_space.size

    @property
    def n_a(self) -> int:
        return self.a_space.size

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.conditional)

    @cached_property
    def conditional_transpose(self):
        if not self.is_sparse:
            return self.conditional.T
        transpose = sp.csr_array(self.conditional.T)
        for array in (transpose.data, transpose.indices, transpose.indptr):
            array.setflags(write=False)
        return transpose

    def conditional_dense(self) -> np.ndarray:
        """The conditional table as a dense ``|X| x |A|`` array."""
        if self.is_sparse:
            return self.conditional.toarray()
        return np.asarray(self.conditional)


@dataclass(frozen=True, eq=False)
class HypercubeConfig:
    """Masking scheme on the sign hypercube ``{-1,+1}^d_x``.

    ``alpha`` is the mask ratio in ``(0, 1]``.  Flip schemes flip each
    surviving coordinate independently with probability ``alpha / 2``.
    """

    d_x: int
    alpha: float
    scheme: str

    def __post_init__(self):
        if self.d_x < 1:
            raise ValidationError(f"d_x must be >= 1, got {self.d_x}")
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
    def block_length(self) -> int:
        """Masked block length ``ceil(alpha * d_x)`` for block schemes.

        At least 1: a positive ``alpha`` masks some coordinate.
        """
        return max(1, int(np.ceil(self.alpha * self.d_x - 1e-12)))


def _labels(points: Sequence[Sequence[int]]) -> tuple[str, ...]:
    """One ``-``/``0``/``+`` string per point, all formed at once."""
    codes = np.ascontiguousarray(_SYMBOLS[np.asarray(points) + 1])
    return tuple(codes.view(f"S{codes.shape[1]}").ravel().astype(str).tolist())


def _sign_points(d: int) -> list[tuple[int, ...]]:
    return list(itertools.product((-1, 1), repeat=d))


def _ternary_points(d: int) -> np.ndarray:
    """``3^d x d`` table of ``{-1,0,+1}^d`` in lexicographic order."""
    return np.indices((3,) * d).reshape(d, -1).T - 1


def _finalize_storage(conditional):
    """Dense/sparse storage decision at the 25% density threshold."""
    if sp.issparse(conditional):
        density = conditional.nnz / (conditional.shape[0] * conditional.shape[1])
        if density < SPARSE_DENSITY:
            out = sp.csr_array(conditional)
            out.eliminate_zeros()
            return out
        return conditional.toarray()
    conditional = np.asarray(conditional, dtype=float)
    density = np.count_nonzero(conditional) / conditional.size
    if density < SPARSE_DENSITY:
        return sp.csr_array(conditional)
    return conditional


def _assemble(x_points, a_points, p_x_mass, conditional,
              hypercube: HypercubeConfig) -> AugmentationProcess:
    """Prune zero-mass augmentations and build the hypercube process."""
    p_a_mass = derive_marginal(conditional, p_x_mass)
    keep = np.nonzero(p_a_mass > 0.0)[0]
    pruned = keep.size < len(a_points)
    if pruned:
        conditional = (
            conditional[:, keep] if not sp.issparse(conditional)
            else conditional.tocsc()[:, keep].tocsr()
        )
        a_points = [a_points[j] for j in keep]
    stored = _finalize_storage(conditional)
    if pruned or stored is not conditional:
        # p_a is always derived from the stored table
        p_a_mass = derive_marginal(stored, p_x_mass)
    x_space = FiniteSpace(len(x_points), _labels(x_points))
    a_space = FiniteSpace(len(a_points), _labels(a_points))
    return AugmentationProcess(
        x_space=x_space,
        a_space=a_space,
        p_x=Distribution(x_space, p_x_mass),
        conditional=stored,
        p_a=Distribution(a_space, p_a_mass),
        hypercube=hypercube,
    )


def _coordinate_channel(config: HypercubeConfig) -> np.ndarray:
    """Single-coordinate conditional, rows x in (-1,+1), cols a in (-1,0,+1)."""
    if config.scheme == "random_mask":
        a = config.alpha
        return np.array([[1.0 - a, a, 0.0], [0.0, a, 1.0 - a]])
    # random_mask_flip: mask w.p. alpha/2, else flip w.p. alpha/2, else keep
    m = config.alpha / 2.0
    keep = (1.0 - m) * (1.0 - m)
    flip = (1.0 - m) * m
    return np.array([[keep, m, flip], [flip, m, keep]])


def _kron_dense(acc: np.ndarray, channel: np.ndarray) -> np.ndarray:
    """``np.kron(acc, channel)``, entry for entry, one multiply per entry of
    ``channel`` over all of ``acc``, so no loop runs over a short axis."""
    n, m = acc.shape
    out = np.empty((n, channel.shape[0], m, channel.shape[1]))
    for (i, j), c in np.ndenumerate(channel):
        np.multiply(acc, c, out=out[:, i, :, j])
    return out.reshape(n * channel.shape[0], m * channel.shape[1])


def _build_product_scheme(config: HypercubeConfig, budget: int) -> AugmentationProcess:
    d = config.d_x
    entries = (3**d) * (2**d)
    if entries > budget:
        raise BudgetExceededError(
            f"{config.scheme} at d_x={d} needs a {2**d} x {3**d} = {entries} "
            f"entry table, exceeding the budget of {budget}"
        )
    channel = _coordinate_channel(config)
    # the product is multiplied out in the storage the table ends up in: a
    # channel without zeros gives a table without zeros, stored dense, and
    # any other one gives a table below 25% density from d_x = 4 on
    if channel.all():
        conditional = reduce(lambda acc, _: _kron_dense(acc, channel),
                             range(d - 1), channel)
    else:
        channel = sp.csr_array(channel)
        conditional = reduce(
            lambda acc, _: sp.csr_array(sp.kron(acc, channel, format="csr")),
            range(d - 1), channel,
        )
    p_x = np.full(2**d, 1.0 / 2**d)
    return _assemble(_sign_points(d), _ternary_points(d), p_x, conditional,
                     config)


def _block_support(d: int, r: int) -> list[tuple[int, ...]]:
    """Reachable block-masked points in lexicographic order."""
    return sorted(tuple(bits[:start]) + (0,) * r + tuple(bits[start:])
                  for start in range(d - r + 1)
                  for bits in itertools.product((-1, 1), repeat=d - r))


def _build_block_scheme(config: HypercubeConfig, budget: int) -> AugmentationProcess:
    d, r = config.d_x, config.block_length
    n_pos = d - r + 1
    # sizes are checked before anything is enumerated
    n_x, n_a = 2**d, n_pos * 2 ** (d - r)
    if n_x * n_a > budget:
        raise BudgetExceededError(
            f"{config.scheme} at d_x={d} needs a {n_x} x {n_a} "
            f"= {n_x * n_a} entry table, exceeding the budget of {budget}"
        )
    x_points = _sign_points(d)
    a_points = _block_support(d, r)
    X = np.array(x_points)
    if config.scheme == "block_mask":
        # each point is a base-3 code of its digits a + 1, which orders
        # points as their lexicographic enumeration does
        place = 3 ** np.arange(d - 1, -1, -1)
        a_codes = (np.array(a_points) + 1) @ place
        masked = np.repeat(X[:, None, :] + 1, n_pos, axis=1)
        for start in range(n_pos):
            masked[:, start, start:start + r] = 1
        # int32 indices unless the entries need int64, as scipy itself picks
        index = sp.get_index_dtype(maxval=n_x * n_pos)
        cols = np.searchsorted(a_codes, masked @ place).ravel().astype(index)
        rows = np.repeat(np.arange(n_x, dtype=index), n_pos)
        conditional = sp.coo_array(
            (np.full(cols.size, 1.0 / n_pos), (rows, cols)),
            shape=(n_x, n_a)).tocsr()
    else:  # block_mask_flip
        q = config.flip_prob
        free = d - r
        # a masked coordinate of a point is 0, so the product sums the signs
        # of the survivors only: agreeing ones less disagreeing ones
        agree = (X @ np.array(a_points).T + free) / 2.0
        k = free - agree  # disagreeing survivor coordinates
        conditional = (q**k) * ((1.0 - q) ** agree) / n_pos
    p_x = np.full(n_x, 1.0 / n_x)
    return _assemble(x_points, a_points, p_x, conditional, config)


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
    if config.scheme in ("random_mask", "random_mask_flip"):
        return _build_product_scheme(config, budget)
    return _build_block_scheme(config, budget)


def build_custom(x_size: int, a_size: int, p_x, triples
                 ) -> tuple[AugmentationProcess, np.ndarray]:
    """Build a process from explicit ``(x_index, a_index, prob)`` triples.

    Row sums must equal 1 within ``1e-9``; rows are then renormalized
    exactly.  Duplicate triples accumulate.  Zero-mass augmentations are
    pruned; the second return value maps the surviving column positions back
    to the original ``a`` indices.
    """
    p_x = np.asarray(p_x, dtype=float)
    if p_x.shape != (x_size,):
        raise ValidationError(f"p_x has shape {p_x.shape}, expected ({x_size},)")
    if p_x.min(initial=np.inf) <= 0:
        raise ValidationError("p_x must be strictly positive")
    total = float(p_x.sum())
    if abs(total - 1.0) > USER_INPUT_TOL:
        raise ValidationError(f"p_x sums to {total!r}, not 1 within {USER_INPUT_TOL}")
    p_x = p_x / total

    conditional = np.zeros((x_size, a_size))
    for x_i, a_i, prob in triples:
        if not (0 <= x_i < x_size and 0 <= a_i < a_size):
            raise ValidationError(f"triple index ({x_i}, {a_i}) out of range")
        if prob < 0:
            raise ValidationError(f"negative probability {prob!r} at ({x_i}, {a_i})")
        conditional[x_i, a_i] += prob
    row_sums = conditional.sum(axis=1)
    bad = np.nonzero(np.abs(row_sums - 1.0) > USER_INPUT_TOL)[0]
    if bad.size:
        raise ValidationError(
            f"conditional rows {bad.tolist()} sum to {row_sums[bad].tolist()}, "
            f"not 1 within {USER_INPUT_TOL}"
        )
    conditional /= row_sums[:, None]

    p_a = derive_marginal(conditional, p_x)
    kept = np.nonzero(p_a > 0.0)[0]
    conditional = _finalize_storage(conditional[:, kept])
    x_space = FiniteSpace(x_size)
    a_space = FiniteSpace(kept.size)
    process = AugmentationProcess(
        x_space=x_space,
        a_space=a_space,
        p_x=Distribution(x_space, p_x),
        conditional=conditional,
        p_a=Distribution(a_space, derive_marginal(conditional, p_x)),
    )
    return process, kept


def conditional_reverse(process: AugmentationProcess) -> np.ndarray:
    """Posterior table ``p(x|a) = p(a|x) p_x(x) / p_a(a)``, shape ``|A| x |X|``."""
    weighted = process.conditional_dense() * process.p_x.mass[:, None]
    return weighted.T / process.p_a.mass[:, None]


def load_process(path) -> tuple[AugmentationProcess, np.ndarray]:
    """Read a custom process from the text format.

    Line 1 is ``x_size a_size``, line 2 the ``p_x`` vector, and every further
    line an ``x_index a_index prob`` triple (0-based).  ``#`` starts a
    comment.  Returns the process and the pruning remap, as
    :func:`build_custom` does.
    """
    tokens_per_line = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                tokens_per_line.append(line.split())
    if len(tokens_per_line) < 2:
        raise ValidationError("process file needs a size line and a p_x line")
    try:
        x_size, a_size = (int(t) for t in tokens_per_line[0])
    except ValueError as exc:
        raise ValidationError(f"bad size line {tokens_per_line[0]!r}") from exc
    p_x = [float(t) for t in tokens_per_line[1]]
    triples = []
    for tok in tokens_per_line[2:]:
        if len(tok) != 3:
            raise ValidationError(f"bad triple line {tok!r}")
        triples.append((int(tok[0]), int(tok[1]), float(tok[2])))
    return build_custom(x_size, a_size, p_x, triples)


def dump_process(path, process: AugmentationProcess) -> None:
    """Write a process in the text format read by :func:`load_process`.

    One triple per nonzero entry, in row-major order, read from the stored
    entries: a sparse table is never made dense.
    """
    entries = sp.coo_array(process.conditional)
    entries.sum_duplicates()  # one entry per position, in row-major order
    keep = entries.data != 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{process.n_x} {process.n_a}\n")
        fh.write(" ".join(f"{v:.17g}" for v in process.p_x.mass) + "\n")
        fh.writelines(f"{i} {j} {v:.17g}\n" for i, j, v in zip(
            entries.row[keep].tolist(), entries.col[keep].tolist(),
            entries.data[keep].tolist()))
