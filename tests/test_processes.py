import copy
import dataclasses
import functools
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from augrkhs import processes
from augrkhs.exceptions import BudgetExceededError, ValidationError
from augrkhs.processes import (
    DEFAULT_BUDGET,
    HypercubeConfig,
    build_custom,
    build_hypercube,
    derive_marginal,
    dump_process,
    load_process,
    sample_process,
)
from augrkhs.processes import AugmentationProcess
from augrkhs.spectral import (
    _spectral_engine,
    _tie_order,
    apply_gamma,
    decompose,
    kernel_x,
)
from conftest import stored_by_density


# one case per check of AugmentationProcess: the fields replaced on the
# valid one-bit half-mask process, and the message the check raises
_BAD_FIELDS = {
    "empty_space": ({"p_x": np.array([])}, "space size must be >= 1, got 0"),
    "marginal_shape": ({"p_x": np.array([[0.5, 0.5]])}, "mass has shape"),
    "negative_marginal": ({"p_x": np.array([-0.1, 1.1])},
                          "probabilities must be nonnegative"),
    "nan_marginal": ({"p_x": np.array([np.nan, np.nan])},
                     "probabilities must be nonnegative, got nan"),
    "p_x_sum": ({"p_x": np.array([0.5, 0.6])}, "probabilities sum to"),
    "table_shape": ({"conditional": np.array([[0.5, 0.5]] * 3)},
                    r"conditional has shape \(3, 2\), expected 2 rows"),
    "negative_entry": ({"conditional": np.array([[0.5, 0.5, 0.0],
                                                 [-0.1, 0.6, 0.5]])},
                       "conditional probabilities must be nonnegative"),
    "nan_entry": ({"conditional": np.array([[0.5, 0.5, 0.0],
                                            [np.nan, 0.5, 0.5]])},
                  "conditional probabilities must be nonnegative, got nan"),
    "nan_sparse_entry": ({"conditional": processes._from_dense(
                              np.array([[0.5, 0.5, 0.0], [0.0, 0.5, np.nan]]))},
                         "conditional probabilities must be nonnegative, "
                         "got nan"),
    # a row with no stored entry sums to 0
    "empty_sparse_row": ({"conditional": processes._from_dense(
                              np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0]]))},
                         r"conditional rows \[0\] do not sum to 1 "
                         r"\(sums \[0\.0\]\)"),
    "row_sum": ({"conditional": np.array([[0.5, 0.5, 0.0],
                                          [0.0, 0.5, 0.6]])},
                r"conditional rows \[1\] do not sum to 1"),
    "p_x_positive": ({"p_x": np.array([0.0, 1.0])},
                     "p_x must be strictly positive"),
    # the derived p_a is (0.5, 0, 0.5): its middle column is not pruned
    "zero_mass_augmentation": ({"conditional": np.array([[1.0, 0.0, 0.0],
                                                         [0.0, 0.0, 1.0]])},
                               "zero-mass augmentations present"),
    "hypercube_size": ({"hypercube": HypercubeConfig(2, 0.5, "random_mask")},
                       "2 data points do not form the hypercube of d_x=2"),
}


@pytest.mark.parametrize("case", sorted(_BAD_FIELDS))
def test_process_checks(case):
    valid = build_hypercube(HypercubeConfig(1, 0.5, "random_mask"))
    assert dataclasses.replace(valid).n_a == 3  # the unchanged copy passes
    fields, message = _BAD_FIELDS[case]
    with pytest.raises(ValidationError, match=message):
        dataclasses.replace(valid, **fields)


def test_a_nan_process_does_not_construct():
    # a check written ``x < 0`` or ``abs(s - 1) > tol`` lets a NaN pass
    with pytest.raises(ValidationError, match="got nan"):
        AugmentationProcess(p_x=[np.nan, np.nan], conditional=np.eye(2))


def test_process_marginals_are_read_only_arrays(small_process):
    for marginal in (small_process.p_x, small_process.p_a):
        assert marginal.dtype == float and not marginal.flags.writeable
    assert (small_process.n_x, small_process.n_a) == (8, 27)


def test_construction_leaves_the_callers_arrays_writeable():
    p_x = np.array([0.5, 0.5])
    table = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    process = AugmentationProcess(p_x=p_x, conditional=table)
    for array in (p_x, table):
        assert array.flags.writeable
    for array in (process.p_x, process.conditional, process.p_a):
        assert array.dtype == float and not array.flags.writeable
    np.testing.assert_array_equal(process.p_a, [0.25, 0.5, 0.25])
    # an integer table is stored converted to float, and read-only
    ints = AugmentationProcess(p_x=p_x, conditional=np.eye(2, dtype=np.int64))
    assert ints.conditional.dtype == float
    assert not ints.conditional.flags.writeable


def test_fully_masked_single_augmentation():
    p = build_hypercube(HypercubeConfig(1, 1.0, "random_mask"))
    assert p.n_a == 1
    np.testing.assert_array_equal(p.conditional_dense(), [[1.0], [1.0]])
    np.testing.assert_array_equal(p.p_a, [1.0])


def test_one_bit_half_mask_tables():
    # rows x = -1, +1 over a = -1, 0, +1
    p = build_hypercube(HypercubeConfig(1, 0.5, "random_mask"))
    np.testing.assert_allclose(
        p.conditional_dense(), [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    np.testing.assert_allclose(p.p_a, [0.25, 0.5, 0.25])


def test_block_mask_counts_and_rows():
    p = build_hypercube(HypercubeConfig(4, 0.5, "block_mask"))
    # r = 2 leaves 3 block positions over 2 free coordinates
    assert p.n_a == 3 * 2**2
    dense = p.conditional_dense()
    for row in dense:
        support = row[row > 0]
        assert support.size == 3
        np.testing.assert_allclose(support, 1.0 / 3.0)


def test_block_mask_probabilities_by_enumeration():
    # oracle: simulate-free enumeration of (position, survivor pattern)
    # pairs; the columns are the reachable points of {-1,0,+1}^d, in the
    # lexicographic order itertools.product enumerates them
    d, alpha = 5, 0.4
    p = build_hypercube(HypercubeConfig(d, alpha, "block_mask"))
    r = int(np.ceil(alpha * d))
    positions = d - r + 1
    xs = list(itertools.product((-1, 1), repeat=d))
    masked = [[x[:start] + (0,) * r + x[start + r:] for start in
               range(positions)] for x in xs]
    reachable = set(itertools.chain(*masked))
    column = {a: j for j, a in enumerate(
        a for a in itertools.product((-1, 0, 1), repeat=d) if a in reachable)}
    dense = p.conditional_dense()
    expected = np.zeros_like(dense)
    for i, row in enumerate(masked):
        for a in row:
            expected[i, column[a]] += 1.0 / positions
    np.testing.assert_allclose(dense, expected, atol=1e-15)


def block_mask_oracle(d, alpha):
    """``block_mask`` from its definition: a block of ``ceil(alpha d)``
    coordinates, at a uniform start, is set to 0.  Returns the dense table
    over the reachable points, enumerated in lexicographic order."""
    r = max(1, int(np.ceil(alpha * d - 1e-12)))
    positions = d - r + 1
    xs = list(itertools.product((-1, 1), repeat=d))
    masked = [x[:s] + (0,) * r + x[s + r:]
              for x in xs for s in range(positions)]
    support = sorted(set(masked))  # -1 < 0 < +1, as tuples compare
    column = {a: j for j, a in enumerate(support)}
    table = np.zeros((len(xs), len(support)))
    for k, a in enumerate(masked):
        table[k // positions, column[a]] += 1.0 / positions
    return table


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("d", range(1, 10))
def test_block_mask_table_matches_its_definition(d, alpha):
    p = build_hypercube(HypercubeConfig(d, alpha, "block_mask"))
    table = block_mask_oracle(d, alpha)
    if not p.is_sparse:
        assert np.array_equal(p.conditional, table)
        return
    want = sp.csr_array(table)
    # each row's columns increase
    same_row = np.diff(p.conditional.entry_rows()) == 0
    assert (np.diff(p.conditional.indices)[same_row] > 0).all()
    for got, ref in ((p.conditional.data, want.data),
                     (p.conditional.indices, want.indices),
                     (p.conditional.indptr, want.indptr)):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


def block_mask_flip_oracle(d, alpha):
    """``block_mask_flip`` from its definition: ``block_mask``'s block, then
    each surviving coordinate flipped with probability ``q = alpha / 2``.

    Returns the dense table over the reachable points in lexicographic
    order, each entry ``q^k (1 - q)^(d - r - k) / positions`` for the ``k``
    survivors a point flips, the counts enumerated point by point.
    """
    r = max(1, int(np.ceil(alpha * d - 1e-12)))
    q = alpha / 2.0
    positions = d - r + 1
    support = sorted({bits[:s] + (0,) * r + bits[s:]
                      for s in range(positions)
                      for bits in itertools.product((-1, 1), repeat=d - r)})
    A = np.array(support)[None, :, :]
    X = np.array(list(itertools.product((-1, 1), repeat=d)))[:, None, :]
    flips = np.count_nonzero((A != 0) & (A != X), axis=2).astype(float)
    return q**flips * (1.0 - q) ** (d - r - flips) / positions


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("d", range(1, 10))
def test_block_mask_flip_table_matches_its_definition(d, alpha):
    p = build_hypercube(HypercubeConfig(d, alpha, "block_mask_flip"))
    table = block_mask_flip_oracle(d, alpha)
    assert not p.is_sparse
    assert p.conditional.tobytes() == table.tobytes()


def test_block_mask_flip_probabilities_by_enumeration():
    d, alpha = 4, 0.5
    p = build_hypercube(HypercubeConfig(d, alpha, "block_mask_flip"))
    r = int(np.ceil(alpha * d))
    q = alpha / 2.0
    positions = d - r + 1
    xs = list(itertools.product((-1, 1), repeat=d))
    # the columns: the points of {-1,0,+1}^d that a block reaches, in the
    # lexicographic order itertools.product enumerates
    reachable = {x[:start] + (0,) * r + x[start + r:]
                 for x in xs for start in range(positions)}
    support = [a for a in itertools.product((-1, 0, 1), repeat=d)
               if a in reachable]
    dense = p.conditional_dense()
    assert dense.shape == (len(xs), len(support))
    for i, x in enumerate(xs):
        for j, a in enumerate(support):
            zeros = [k for k, v in enumerate(a) if v == 0]
            start = zeros[0]
            assert zeros == list(range(start, start + r))
            disagree = sum(1 for k, v in enumerate(a)
                           if v != 0 and v != x[k])
            expected = (q**disagree) * ((1 - q) ** (d - r - disagree)) / positions
            assert dense[i, j] == pytest.approx(expected, abs=1e-15)


def test_random_mask_flip_channel_probabilities():
    alpha = 0.6
    p = build_hypercube(HypercubeConfig(1, alpha, "random_mask_flip"))
    m = alpha / 2.0
    # rows x = -1, +1 over a = -1, 0, +1
    expected = np.array([
        [(1 - m) * (1 - m), m, (1 - m) * m],
        [(1 - m) * m, m, (1 - m) * (1 - m)],
    ])
    np.testing.assert_allclose(p.conditional_dense(), expected)


def test_random_mask_tensor_factorization():
    # conditional is the d-fold tensor product of the one-bit channel
    single = build_hypercube(HypercubeConfig(1, 0.3, "random_mask"))
    C1 = single.conditional_dense()
    for d in range(2, 7):
        p = build_hypercube(HypercubeConfig(d, 0.3, "random_mask"))
        expected = C1
        for _ in range(d - 1):
            expected = np.kron(expected, C1)
        np.testing.assert_allclose(p.conditional_dense(), expected, atol=1e-15)


def kron_dense(acc, channel):
    """``np.kron(acc, channel)``, one multiply per entry of ``channel`` over
    all of ``acc``: the step the in-place build replaced, kept as its
    oracle."""
    n, m = acc.shape
    out = np.empty((n, channel.shape[0], m, channel.shape[1]))
    for (i, j), c in np.ndenumerate(channel):
        np.multiply(acc, c, out=out[:, i, :, j])
    return out.reshape(n * channel.shape[0], m * channel.shape[1])


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("d_x", range(1, 9))
def test_dense_product_table_equals_the_kron_oracle(d_x, alpha):
    # d_x 8 multiplies out 128 rows of the lower power in four blocks, the
    # last one row 0 alone.  random_mask is built CSR, so its dense table
    # is the CSR power made dense: stored so up to d_x 6, and read so above
    for scheme in ("random_mask_flip", "random_mask"):
        config = HypercubeConfig(d_x, alpha, scheme)
        channel = processes._coordinate_channel(config)
        want = functools.reduce(lambda acc, _: kron_dense(acc, channel),
                                range(d_x - 1), channel)
        process = build_hypercube(config)
        assert process.is_sparse == (scheme == "random_mask" and d_x > 6)
        assert process.conditional_dense().tobytes() == want.tobytes(), scheme


@pytest.mark.parametrize("d_x", [7, 8])
def test_dense_product_build_holds_the_table(d_x):
    # the table, plus two vectors over A (the marginal, derived once and
    # held by the process, and the boolean mask of the reached columns, an
    # eighth of a vector), plus the buffer of bufsize entries a ufunc takes
    # to write the power's strided slots; no lower power of the table and
    # nothing per point.  One build first, so that caches numpy fills once
    # per process are not counted
    config = HypercubeConfig(d_x, 0.5, "random_mask_flip")
    build_hypercube(config)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build_hypercube(config)
        build = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n_x, n_a = 2**d_x, 3**d_x
    admitted = 8 * n_x * n_a + 8 * 2 * n_a + 8 * np.getbufsize()
    assert build <= admitted, (build, admitted)


@pytest.mark.parametrize("d", range(1, 10))
def test_sign_points_equal_the_product_enumeration(d):
    # itertools.product, the enumeration the bit table replaced, is its
    # oracle
    want = np.array(list(itertools.product((-1, 1), repeat=d)))
    got = 2 * processes._subset_bits(d) - 1
    assert got.dtype == want.dtype and np.array_equal(got, want)


def block_support_by_tuples(d, r):
    """The block-masked points as sorted tuples, the enumeration the codes
    replaced, kept as their oracle."""
    return sorted(tuple(bits[:start]) + (0,) * r + tuple(bits[start:])
                  for start in range(d - r + 1)
                  for bits in itertools.product((-1, 1), repeat=d - r))


@pytest.mark.parametrize("d", range(1, 10))
def test_block_support_equals_the_tuple_oracle(d):
    place = [3 ** (d - 1 - j) for j in range(d)]
    for r in range(1, d + 1):
        want = [sum((v + 1) * w for v, w in zip(a, place))
                for a in block_support_by_tuples(d, r)]
        assert processes._block_support(d, r).tolist() == want, r


def test_marginals_sum_to_one_across_schemes(process_cache):
    for scheme in ("random_mask", "block_mask", "block_mask_flip",
                   "random_mask_flip"):
        p = (process_cache(scheme, 4, 0.3) if scheme != "random_mask_flip"
             else build_hypercube(HypercubeConfig(4, 0.3, scheme)))
        assert abs(p.p_a.sum() - 1.0) <= 1e-12
        rows = (p.conditional_dense()).sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-12)


def test_marginal_recomputation_is_bit_identical(small_process):
    p = small_process
    again = derive_marginal(p.conditional, p.p_x)
    assert np.array_equal(again, p.p_a)


def _sparse_custom(seed, n_x=8, n_a=60, per_row=2):
    """A custom process over ``n_x`` points whose rows reach ``per_row`` of
    ``n_a`` augmentations each, most of them no row's."""
    rng = np.random.default_rng(seed)
    triples = [(x, int(a), float(w)) for x in range(n_x)
               for a, w in zip(rng.choice(n_a, per_row, replace=False),
                               rng.dirichlet(np.ones(per_row)))]
    return build_custom(n_x, n_a, rng.dirichlet(np.ones(n_x)), triples)[0]


def _assert_marginal_is_the_tables(process):
    again = derive_marginal(process.conditional, process.p_x)
    assert process.p_a.tobytes() == again.tobytes()


@pytest.mark.parametrize("d_x", range(1, 9))
@pytest.mark.parametrize("scheme", processes.SCHEMES)
def test_a_built_marginal_is_its_tables(scheme, d_x):
    # p_a is derived from the stored table once, so a recomputation gives
    # its bytes, whichever form the table is stored in
    _assert_marginal_is_the_tables(
        build_hypercube(HypercubeConfig(d_x, 0.3, scheme)))


def test_a_custom_marginal_is_its_tables():
    dense = [_sparse_custom(seed) for seed in range(5)]
    with stored_by_density():
        sparse = [_sparse_custom(seed) for seed in range(5)]
    assert not any(p.is_sparse for p in dense)
    assert all(p.is_sparse and p.n_a < 60 for p in sparse)  # some pruned
    for process in dense + sparse:
        _assert_marginal_is_the_tables(process)


@pytest.mark.parametrize("scheme", ["random_mask", "block_mask"])
def test_a_sample_marginal_is_its_tables(process_cache, scheme):
    # a sample's p_a is its stored rows' marginal, not a slice of the
    # marginal over all the augmentations the population reaches
    process = process_cache(scheme, 5, 0.3)
    for N, seed in itertools.product((4, 8, 32, 64), range(8)):
        _assert_marginal_is_the_tables(sample_process(process, N, seed)[0])


def test_budget_error_names_counts():
    with pytest.raises(BudgetExceededError, match=(
            r"^the random_mask table at d_x=12 needs 4096 x 531441 = "
            r"2176782336 entries, exceeding the budget of 1000000$")):
        build_hypercube(HypercubeConfig(12, 0.5, "random_mask"),
                        budget=10**6)
    assert DEFAULT_BUDGET == 10**8


@pytest.mark.parametrize("scheme", ["block_mask", "block_mask_flip"])
def test_block_budget_checked_before_enumeration(scheme):
    # 2^40 data points: only a check made before enumerating returns at all
    with pytest.raises(BudgetExceededError, match="1099511627776 x 22020096"):
        build_hypercube(HypercubeConfig(40, 0.5, scheme), budget=10**6)


@pytest.mark.parametrize("d_x, sides", [
    (10000, {"random_mask": "2^10000 x 3^10000",
             "block_mask": "2^10000 x 5001*2^5000"}),
    (10**12, {"random_mask": "2^1000000000000 x 3^1000000000000",
              "block_mask": "2^1000000000000 x 500000000001*2^500000000000"})],
    ids=["1e4", "1e12"])
@pytest.mark.parametrize("scheme", ["random_mask", "block_mask"])
def test_an_oversized_d_x_is_over_budget(scheme, d_x, sides):
    # 3^10000 has more digits than an int prints, and 2^(10^12) more bits
    # than memory holds: the check forms no power, and writes the sides as
    # powers
    with pytest.raises(BudgetExceededError, match=re.escape(
            f"the {scheme} table at d_x={d_x} needs {sides[scheme]} "
            f"entries, exceeding the budget of {DEFAULT_BUDGET}")):
        build_hypercube(HypercubeConfig(d_x, 0.5, scheme))


def test_the_budget_check_is_exact_at_its_bound():
    # 2^3 x 3^3 = 216 entries: within a budget of 216, over one of 215
    config = HypercubeConfig(3, 0.5, "random_mask")
    assert build_hypercube(config, budget=216).n_x == 8
    with pytest.raises(BudgetExceededError, match="8 x 27 = 216 entries"):
        build_hypercube(config, budget=215)


def test_alpha_validation():
    with pytest.raises(ValidationError):
        HypercubeConfig(3, 0.0, "random_mask")
    with pytest.raises(ValidationError):
        HypercubeConfig(3, 1.2, "random_mask")
    with pytest.raises(ValidationError):
        HypercubeConfig(3, 0.5, "checkerboard")


@pytest.mark.parametrize("alpha", ["0.5", None, True, 0.5j])
def test_alpha_must_be_a_real_number(alpha):
    # named before the range check would fail on it with a bare TypeError,
    # or read True as 1
    message = f"alpha must be a real number, got {alpha!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        HypercubeConfig(3, alpha, "random_mask")
    assert HypercubeConfig(3, np.float64(0.5), "random_mask").alpha == 0.5


@pytest.mark.parametrize("d_x", [2.5, 3.0, True, "3", None])
@pytest.mark.parametrize("scheme", ["random_mask", "block_mask"])
def test_d_x_must_be_an_integer(d_x, scheme):
    # named before the build would fail on it with a bare TypeError
    message = f"d_x must be an integer, got {d_x!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        HypercubeConfig(d_x, 0.5, scheme)
    assert HypercubeConfig(np.int64(3), 0.5, scheme).d_x == 3


def test_custom_identity_process():
    process, kept = build_custom(
        3, 3, [0.2, 0.3, 0.5], [(i, i, 1.0) for i in range(3)])
    np.testing.assert_array_equal(kept, [0, 1, 2])
    np.testing.assert_allclose(process.p_a, process.p_x)


def test_custom_row_sum_error_lists_rows():
    with pytest.raises(ValidationError, match=r"rows \[1\]"):
        build_custom(2, 2, [0.5, 0.5], [(0, 0, 1.0), (1, 0, 0.5)])


@pytest.mark.parametrize("p_x,triples,message", [
    ([np.nan, 0.5], [(0, 0, 1.0), (1, 1, 1.0)], "p_x must be strictly positive"),
    ([0.5, 0.5], [(0, 0, np.nan), (1, 1, 1.0)],
     r"probability nan at \(0, 0\) is not a nonnegative number"),
    ([0.5, 0.5], [(0, 0, "1"), (1, 1, 1.0)],
     r"probability '1' at \(0, 0\) is not a nonnegative number"),
], ids=["nan_p_x", "nan_probability", "str_probability"])
def test_custom_nan_or_non_number_rejected_before_assembly(p_x, triples, message):
    # refused by its own check, before assembly could warn about it or
    # prune every column
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=message):
            build_custom(2, 2, p_x, triples)


@pytest.mark.parametrize("sizes", [(-1, 2), (2, -1), (0, 2)])
def test_custom_space_size_below_one_rejected(sizes):
    with pytest.raises(ValidationError, match=(
            rf"space sizes must be >= 1, got {sizes[0]}, {sizes[1]}")):
        build_custom(*sizes, [0.5, 0.5], [])


@pytest.mark.parametrize("sizes,name", [
    ((True, 2), "x_size"), ((2.5, 2), "x_size"),
    ((2, np.float64(2.0)), "a_size"), ((2, "2"), "a_size")])
def test_custom_space_size_must_be_an_integer(sizes, name):
    value = sizes[name == "a_size"]
    with pytest.raises(ValidationError, match=re.escape(
            f"{name} must be an integer, got {value!r}")):
        build_custom(*sizes, [0.5, 0.5], [(0, 0, 1.0), (1, 1, 1.0)])
    assert build_custom(np.int64(2), 2, [0.5, 0.5],
                        [(0, 0, 1.0), (1, 1, 1.0)])[0].n_x == 2


@pytest.mark.parametrize("index", [(1.5, 1), (1, 1.0), (True, 1)])
def test_custom_float_index_rejected(index):
    with pytest.raises(ValidationError, match=(
            rf"triple index \({index[0]!r}, {index[1]!r}\) is not a pair "
            "of integers")):
        build_custom(2, 2, [0.5, 0.5], [(0, 0, 1.0), (*index, 1.0)])


@pytest.mark.parametrize("body,message", [
    ("2 2\n0.5 abc\n0 0 1\n1 1 1\n",
     r"line 3: bad p_x line '0.5 abc' \(could not convert"),
    ("2 2\n0.5 0.5\n0 0 1\n1.5 1 1\n",
     r"line 5: bad triple line '1.5 1 1' \(invalid literal for int"),
    ("2 2\n0.5 0.5\n0 0 1\n1 1\n",
     r"line 5: bad triple line '1 1' \(expected 3 fields\)"),
    ("2 x\n0.5 0.5\n0 0 1\n1 1 1\n", r"line 2: bad size line '2 x'"),
    ("2 2\n0.5 nan\n0 0 1\n1 1 1\n", "p_x must be strictly positive"),
], ids=["p_x_token", "float_index", "short_triple", "size_token", "nan_p_x"])
def test_malformed_process_file_names_the_line(tmp_path, body, message):
    path = tmp_path / "bad.txt"
    path.write_text("# a comment line, counted\n" + body)
    with pytest.raises(ValidationError, match=message):
        load_process(path)


def test_custom_negative_probability_rejected():
    with pytest.raises(ValidationError, match="negative"):
        build_custom(1, 2, [1.0], [(0, 0, 1.5), (0, 1, -0.5)])


def test_custom_pruning_returns_remap():
    process, kept = build_custom(
        2, 4, [0.5, 0.5],
        [(0, 0, 0.5), (0, 2, 0.5), (1, 0, 0.25), (1, 2, 0.75)])
    np.testing.assert_array_equal(kept, [0, 2])
    assert process.n_a == 2


def test_custom_matches_builtin_kernel():
    built = build_hypercube(HypercubeConfig(1, 0.5, "random_mask"))
    custom, _ = build_custom(
        2, 3, [0.5, 0.5],
        [(0, 0, 0.5), (0, 1, 0.5), (1, 1, 0.5), (1, 2, 0.5)])
    np.testing.assert_allclose(kernel_x(custom), kernel_x(built), atol=1e-14)


def test_pruning_soundness_kernel_unchanged():
    # oracle: K_X from the raw unpruned table, skipping zero-mass columns
    rng = np.random.default_rng(0)
    raw = rng.uniform(size=(4, 6))
    raw[:, 2] = 0.0  # an unreachable augmentation
    raw /= raw.sum(axis=1, keepdims=True)
    p_x = np.full(4, 0.25)
    p_a_raw = raw.T @ p_x
    expected = np.zeros((4, 4))
    for x1 in range(4):
        for x2 in range(4):
            total = 0.0
            for a in range(6):
                if p_a_raw[a] > 0:
                    total += raw[x1, a] * raw[x2, a] / p_a_raw[a]
            expected[x1, x2] = total
    triples = [(i, j, raw[i, j]) for i in range(4) for j in range(6)
               if raw[i, j] > 0]
    process, kept = build_custom(4, 6, p_x, triples)
    assert 2 not in kept.tolist()
    np.testing.assert_allclose(kernel_x(process), expected, atol=1e-12)


def posterior(process):
    """The posterior table ``p(x|a)``, ``|A| x |X|``: Gamma of the point
    indicators of X, row ``a`` the law of ``x`` given ``a``."""
    return apply_gamma(process, np.eye(process.n_x))


def bayes_oracle(process):
    """``p(x|a) = p(a|x) p_x(x) / p_a(a)`` formed by hand on the dense
    table; the oracle of :func:`posterior`."""
    weighted = process.conditional_dense() * process.p_x[:, None]
    return weighted.T / process.p_a[:, None]


def test_posterior_identity_and_masked():
    identity, _ = build_custom(2, 2, [0.4, 0.6], [(0, 0, 1.0), (1, 1, 1.0)])
    np.testing.assert_allclose(posterior(identity), np.eye(2), atol=1e-15)
    masked = build_hypercube(HypercubeConfig(1, 1.0, "random_mask"))
    np.testing.assert_allclose(posterior(masked), [[0.5, 0.5]], atol=1e-15)


def test_posterior_half_mask_by_bayes():
    p = build_hypercube(HypercubeConfig(1, 0.5, "random_mask"))
    rev = posterior(p)
    # unmasked coordinate reveals the original; the mask is uninformative
    np.testing.assert_allclose(rev, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    np.testing.assert_allclose(rev.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("scheme", processes.SCHEMES)
def test_posterior_equals_the_bayes_oracle_on_hypercube(scheme):
    for d_x, alpha in itertools.product(range(1, 7), [0.2, 0.5, 0.9, 1.0]):
        process = build_hypercube(HypercubeConfig(d_x, alpha, scheme))
        got, want = posterior(process), bayes_oracle(process)
        assert got.shape == (process.n_a, process.n_x)
        assert got.tobytes() == want.tobytes(), (d_x, alpha)


@pytest.mark.parametrize("seed", range(20))
def test_posterior_equals_the_bayes_oracle_on_custom(seed):
    rng = np.random.default_rng(seed)
    n_x, n_a = rng.integers(2, 9), rng.integers(2, 12)
    table = rng.uniform(size=(n_x, n_a)) * (rng.uniform(size=(n_x, n_a)) > 0.4)
    table[np.arange(n_x), rng.integers(0, n_a, size=n_x)] += 0.5
    table /= table.sum(axis=1, keepdims=True)
    p_x = rng.uniform(0.1, 1.0, size=n_x)
    triples = [(i, j, table[i, j]) for i, j in zip(*np.nonzero(table))]
    process, _ = build_custom(n_x, n_a, p_x / p_x.sum(), triples)
    assert posterior(process).tobytes() == bayes_oracle(process).tobytes()


def hand_written_channel(config):
    """The one-coordinate channel written out per scheme, without
    ``HypercubeConfig.mask_prob``: the oracle of the one formula."""
    if config.scheme == "random_mask":
        a = config.alpha
        return np.array([[1.0 - a, a, 0.0], [0.0, a, 1.0 - a]])
    m = config.alpha / 2.0  # random_mask_flip
    keep = (1.0 - m) * (1.0 - m)
    flip = (1.0 - m) * m
    return np.array([[keep, m, flip], [flip, m, keep]])


@pytest.mark.parametrize("scheme", processes.RANDOM_SCHEMES)
def test_channel_equals_the_hand_written_oracle(scheme):
    # bytes, so the sign of each zero is compared too
    for alpha in [1e-9] + [i / 200 for i in range(1, 201)]:
        config = HypercubeConfig(1, alpha, scheme)
        assert (processes._coordinate_channel(config).tobytes()
                == hand_written_channel(config).tobytes()), alpha


def test_mask_prob_of_each_scheme():
    assert HypercubeConfig(3, 0.6, "random_mask").mask_prob == 0.6
    assert HypercubeConfig(3, 0.6, "random_mask_flip").mask_prob == 0.3
    assert HypercubeConfig(3, 0.6, "random_mask_flip").flip_prob == 0.3
    assert HypercubeConfig(3, 0.6, "random_mask").flip_prob == 0.0


@pytest.mark.parametrize("scheme", ["block_mask", "block_mask_flip"])
def test_tiny_alpha_masks_a_block_of_one(scheme):
    config = HypercubeConfig(4, 1e-15, scheme)
    assert config.block_length == 1
    assert build_hypercube(config).n_a == 4 * 2**3


def test_only_hypercube_builds_carry_their_config(tmp_path, small_process):
    config = HypercubeConfig(2, 0.5, "block_mask")
    assert build_hypercube(config).hypercube is config
    path = tmp_path / "process.txt"
    dump_process(path, small_process)
    assert load_process(path)[0].hypercube is None
    assert build_custom(2, 2, [0.5, 0.5], [(0, 0, 1.0), (1, 1, 1.0)])[0] \
        .hypercube is None
    with pytest.raises(ValidationError, match="hypercube of d_x=2"):
        dataclasses.replace(small_process, hypercube=config)


def test_process_file_roundtrip(tmp_path, small_process):
    path = tmp_path / "process.txt"
    dump_process(path, small_process)
    loaded, kept = load_process(path)
    assert loaded.n_x == small_process.n_x
    assert loaded.n_a == small_process.n_a
    np.testing.assert_allclose(loaded.conditional_dense(),
                               small_process.conditional_dense(), atol=1e-15)
    np.testing.assert_allclose(loaded.p_a, small_process.p_a,
                               atol=1e-15)


def dump_process_oracle(path, process):
    """The dense writer ``dump_process`` replaced: every row of the dense
    table, its nonzero entries in column order."""
    dense = process.conditional_dense()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{process.n_x} {process.n_a}\n")
        fh.write(" ".join(f"{v:.17g}" for v in process.p_x) + "\n")
        for i in range(process.n_x):
            for j in np.nonzero(dense[i])[0]:
                fh.write(f"{i} {j} {dense[i, j]:.17g}\n")


@pytest.mark.parametrize("scheme", ["random_mask", "block_mask",
                                    "block_mask_flip", "random_mask_flip"])
def test_dump_writes_the_stored_rows(tmp_path, monkeypatch, scheme):
    # by the density rule alone, random_mask and block_mask are stored
    # sparse, the flip schemes dense
    with stored_by_density():
        process = build_hypercube(HypercubeConfig(5, 0.4, scheme))
    assert process.is_sparse == (scheme in ("random_mask", "block_mask"))
    dump_process_oracle(tmp_path / "oracle.txt", process)

    def refuse(self):
        raise AssertionError("the dense conditional table was formed")

    monkeypatch.setattr(AugmentationProcess, "conditional_dense", refuse)
    dump_process(tmp_path / "process.txt", process)
    assert (tmp_path / "process.txt").read_bytes() == \
        (tmp_path / "oracle.txt").read_bytes()


def test_dump_keeps_the_old_file_when_a_write_fails(tmp_path, small_process):
    # the p_x line fails after the size line is written: the target keeps
    # its old bytes, and no temporary file is left beside it
    target = tmp_path / "process.txt"
    target.write_bytes(b"old bytes\n")

    class FailingMass:
        size = small_process.n_x

        def __iter__(self):
            raise OSError("injected failure")

    broken = copy.copy(small_process)
    object.__setattr__(broken, "p_x", FailingMass())
    with pytest.raises(OSError, match="injected failure"):
        dump_process(target, broken)
    assert target.read_bytes() == b"old bytes\n"
    assert [path.name for path in tmp_path.iterdir()] == ["process.txt"]


def test_process_file_comments_and_errors(tmp_path):
    path = tmp_path / "custom.txt"
    path.write_text(
        "# a two-point identity process\n"
        "2 2\n"
        "0.5 0.5  # uniform\n"
        "0 0 1.0\n"
        "1 1 1.0\n"
    )
    process, _ = load_process(path)
    np.testing.assert_allclose(process.p_a, [0.5, 0.5])
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n0.5 0.5\n0 0 1.0\n")
    with pytest.raises(ValidationError):
        load_process(bad)


def test_sparse_storage_threshold():
    # 64 x 729 = 46,656 entries of density (2/3)^6 < 25%: dense by size
    small = build_hypercube(HypercubeConfig(6, 0.5, "random_mask"))
    assert small.conditional.size <= processes.DENSE_ENTRIES
    assert not small.is_sparse
    # 128 x 2187 = 279,936 entries of density (2/3)^7: sparse
    wide = build_hypercube(HypercubeConfig(7, 0.5, "random_mask"))
    assert math.prod(wide.conditional.shape) > processes.DENSE_ENTRIES
    assert wide.is_sparse
    # 256 x 6561 entries, every one nonzero: dense at any size
    full = build_hypercube(HypercubeConfig(8, 0.5, "random_mask_flip"))
    assert not full.is_sparse
    # the same rule on a table given dense and one given sparse, on both
    # sides of DENSE_ENTRIES entries
    assert 64 * 1024 == processes.DENSE_ENTRIES
    for n_a in (1024, 1025):
        table = np.zeros((64, n_a))
        table[:, 0] = 1.0
        for built in (table, processes._from_dense(table)):
            stored = processes._finalize_storage(built)
            assert isinstance(stored, processes.CSRTable) == (n_a > 1024)
            np.testing.assert_array_equal(
                stored.toarray() if n_a > 1024 else stored, table)
    with stored_by_density():
        small = build_hypercube(HypercubeConfig(6, 0.5, "random_mask"))
    assert small.is_sparse
    narrow = build_hypercube(HypercubeConfig(2, 0.5, "block_mask_flip"))
    assert not narrow.is_sparse  # flip rows are dense over the support


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_random_custom_processes_validate(n_x, n_a, seed):
    rng = np.random.default_rng(seed)
    table = rng.uniform(size=(n_x, n_a)) * (rng.uniform(size=(n_x, n_a)) > 0.3)
    table[np.arange(n_x), rng.integers(0, n_a, size=n_x)] += 0.5
    table /= table.sum(axis=1, keepdims=True)
    p_x = rng.uniform(0.1, 1.0, size=n_x)
    p_x /= p_x.sum()
    triples = [(i, j, table[i, j]) for i in range(n_x) for j in range(n_a)
               if table[i, j] > 0]
    process, kept = build_custom(n_x, n_a, p_x, triples)
    assert abs(process.p_a.sum() - 1.0) <= 1e-12
    assert process.p_a.min() > 0
    rows = process.conditional_dense().sum(axis=1)
    np.testing.assert_allclose(rows, 1.0, atol=1e-12)
    rev = posterior(process)
    np.testing.assert_allclose(rev.sum(axis=1), 1.0, atol=1e-12)


# population tables above and below 25% density
_SAMPLED = [("random_mask", 3, 0.5), ("random_mask", 6, 0.5)]


@pytest.mark.parametrize("scheme,d_x,alpha", _SAMPLED)
def test_sample_process_weights_rng_choice_draws_by_count(process_cache,
                                                          scheme, d_x, alpha):
    process = process_cache(scheme, d_x, alpha)
    for N, seed in ((1, 0), (37, 4), (512, 9)):
        sample, draws, _ = sample_process(process, N, seed)
        rng = np.random.default_rng(seed)
        np.testing.assert_array_equal(
            draws, rng.choice(process.n_x, size=N, p=process.p_x))
        _, counts = np.unique(draws, return_counts=True)
        np.testing.assert_array_equal(sample.p_x, counts / N)


@pytest.mark.parametrize("scheme,d_x,alpha", _SAMPLED)
def test_sample_process_rows_are_population_rows(scheme, d_x, alpha):
    # by the density rule alone: both tables are dense by size otherwise
    with stored_by_density():
        process = build_hypercube(HypercubeConfig(d_x, alpha, scheme))
    assert process.is_sparse == (d_x == 6)
    full = process.conditional_dense()
    for N, seed in ((1, 0), (37, 4), (512, 9)):
        sample, draws, kept = sample_process(process, N, seed)
        rows = full[np.unique(draws)]
        assert not sample.is_sparse
        np.testing.assert_array_equal(sample.conditional, rows[:, kept])
        # the augmentations left out carry no mass of the sampled rows
        assert not np.delete(rows, kept, axis=1).any()
        np.testing.assert_allclose(sample.conditional.sum(axis=1), 1.0,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            sample.p_a, sample.p_x @ rows[:, kept], rtol=0,
            atol=1e-15)


def test_sample_process_needs_a_draw(small_process):
    for N in (0, -3):
        with pytest.raises(ValidationError, match="N must be >= 1"):
            sample_process(small_process, N, 0)


@pytest.mark.parametrize("N", [2.5, 4.0, True, np.float64(4.0), "4"])
def test_sample_process_needs_an_integer_N(small_process, N):
    # named before numpy would fail on it with a bare TypeError
    message = f"N must be an integer, got {N!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        sample_process(small_process, N, 0)
    assert sample_process(small_process, np.int64(4), 0)[1].size == 4


@pytest.mark.parametrize("scheme", ["random_mask", "block_mask"])
def test_sample_decomposition_follows_decompose_conventions(process_cache,
                                                            scheme):
    # four draws of a d_x 5 process tie often; the SVD gives some of those
    # blocks out of order, and decompose puts every one in order
    process = process_cache(scheme, 5, 0.3)
    reordered = 0
    for seed in range(32):
        sample, _, _ = sample_process(process, 4, seed)
        lambdas, psi, _ = _spectral_engine(sample)
        reordered += _tie_order(lambdas, psi) is not None
        dec = decompose(sample)
        assert _tie_order(dec.lambdas, dec.psi) is None
        again = decompose(sample_process(process, 4, seed)[0])
        for got, want in ((again.lambdas, dec.lambdas), (again.psi, dec.psi),
                          (again.phi, dec.phi)):
            assert got.tobytes() == want.tobytes()
    assert reordered > 0
