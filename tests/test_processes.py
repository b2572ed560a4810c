import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from augrkhs.exceptions import BudgetExceededError, ValidationError
from augrkhs.processes import (
    DEFAULT_BUDGET,
    Distribution,
    FiniteSpace,
    HypercubeConfig,
    build_custom,
    build_hypercube,
    conditional_reverse,
    derive_marginal,
    dump_process,
    load_process,
)
from augrkhs.processes import AugmentationProcess
from augrkhs.spectral import kernel_x


def test_finite_space_validation():
    with pytest.raises(ValidationError):
        FiniteSpace(0)
    with pytest.raises(ValidationError):
        FiniteSpace(2, ("a",))


def test_distribution_validation():
    space = FiniteSpace(2)
    with pytest.raises(ValidationError):
        Distribution(space, np.array([0.5, 0.6]))
    with pytest.raises(ValidationError):
        Distribution(space, np.array([-0.1, 1.1]))


def test_fully_masked_single_augmentation():
    p = build_hypercube(HypercubeConfig(1, 1.0, "random_mask"))
    assert p.n_a == 1
    assert p.a_space.labels == ("0",)
    np.testing.assert_array_equal(p.conditional_dense(), [[1.0], [1.0]])
    np.testing.assert_array_equal(p.p_a.mass, [1.0])


def test_one_bit_half_mask_tables():
    p = build_hypercube(HypercubeConfig(1, 0.5, "random_mask"))
    assert p.x_space.labels == ("-", "+")
    assert p.a_space.labels == ("-", "0", "+")
    np.testing.assert_allclose(
        p.conditional_dense(), [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    np.testing.assert_allclose(p.p_a.mass, [0.25, 0.5, 0.25])


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
    # oracle: simulate-free enumeration of (position, survivor pattern) pairs
    d, alpha = 5, 0.4
    p = build_hypercube(HypercubeConfig(d, alpha, "block_mask"))
    r = int(np.ceil(alpha * d))
    positions = d - r + 1
    xs = list(itertools.product((-1, 1), repeat=d))
    a_labels = {lbl: j for j, lbl in enumerate(p.a_space.labels)}
    dense = p.conditional_dense()
    expected = np.zeros_like(dense)
    symbol = {-1: "-", 0: "0", 1: "+"}
    for i, x in enumerate(xs):
        for start in range(positions):
            masked = list(x)
            masked[start:start + r] = [0] * r
            lbl = "".join(symbol[v] for v in masked)
            expected[i, a_labels[lbl]] += 1.0 / positions
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
    return table, support


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("d", range(1, 10))
def test_block_mask_table_matches_its_definition(d, alpha):
    p = build_hypercube(HypercubeConfig(d, alpha, "block_mask"))
    table, support = block_mask_oracle(d, alpha)
    symbol = {-1: "-", 0: "0", 1: "+"}
    assert p.a_space.labels == tuple(
        "".join(symbol[v] for v in a) for a in support)
    if not p.is_sparse:
        assert np.array_equal(p.conditional, table)
        return
    want = sp.csr_array(table)
    assert p.conditional.has_sorted_indices
    for got, ref in ((p.conditional.data, want.data),
                     (p.conditional.indices, want.indices),
                     (p.conditional.indptr, want.indptr)):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


def block_mask_flip_oracle(d, alpha):
    """``block_mask_flip`` from its definition: ``block_mask``'s block, then
    each surviving coordinate flipped with probability ``q = alpha / 2``.

    Returns the reachable points in lexicographic order and the dense table,
    each entry ``q^k (1 - q)^(d - r - k) / positions`` for the ``k``
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
    return q**flips * (1.0 - q) ** (d - r - flips) / positions, support


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("d", range(1, 10))
def test_block_mask_flip_table_matches_its_definition(d, alpha):
    p = build_hypercube(HypercubeConfig(d, alpha, "block_mask_flip"))
    table, support = block_mask_flip_oracle(d, alpha)
    symbol = {-1: "-", 0: "0", 1: "+"}
    assert p.a_space.labels == tuple(
        "".join(symbol[v] for v in a) for a in support)
    assert not p.is_sparse
    assert p.conditional.tobytes() == table.tobytes()


def test_block_mask_flip_probabilities_by_enumeration():
    d, alpha = 4, 0.5
    p = build_hypercube(HypercubeConfig(d, alpha, "block_mask_flip"))
    r = int(np.ceil(alpha * d))
    q = alpha / 2.0
    positions = d - r + 1
    xs = list(itertools.product((-1, 1), repeat=d))
    dense = p.conditional_dense()
    symbol = {-1: "-", 0: "0", 1: "+"}
    for i, x in enumerate(xs):
        for j, lbl in enumerate(p.a_space.labels):
            a = [{"-": -1, "0": 0, "+": 1}[c] for c in lbl]
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


def test_marginals_sum_to_one_across_schemes(process_cache):
    for scheme in ("random_mask", "block_mask", "block_mask_flip",
                   "random_mask_flip"):
        p = (process_cache(scheme, 4, 0.3) if scheme != "random_mask_flip"
             else build_hypercube(HypercubeConfig(4, 0.3, scheme)))
        assert abs(p.p_a.mass.sum() - 1.0) <= 1e-12
        rows = (p.conditional_dense()).sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-12)


def test_marginal_recomputation_is_bit_identical(small_process):
    p = small_process
    again = derive_marginal(p.conditional, p.p_x.mass)
    assert np.array_equal(again, p.p_a.mass)


def test_budget_error_names_counts():
    with pytest.raises(BudgetExceededError, match="entry table"):
        build_hypercube(HypercubeConfig(12, 0.5, "random_mask"),
                        budget=10**6)
    assert DEFAULT_BUDGET == 10**8


@pytest.mark.parametrize("scheme", ["block_mask", "block_mask_flip"])
def test_block_budget_checked_before_enumeration(scheme):
    # 2^40 data points: only a check made before enumerating returns at all
    with pytest.raises(BudgetExceededError, match="1099511627776 x 22020096"):
        build_hypercube(HypercubeConfig(40, 0.5, scheme), budget=10**6)


def test_alpha_validation():
    with pytest.raises(ValidationError):
        HypercubeConfig(3, 0.0, "random_mask")
    with pytest.raises(ValidationError):
        HypercubeConfig(3, 1.2, "random_mask")
    with pytest.raises(ValidationError):
        HypercubeConfig(3, 0.5, "checkerboard")


def test_custom_identity_process():
    process, kept = build_custom(
        3, 3, [0.2, 0.3, 0.5], [(i, i, 1.0) for i in range(3)])
    np.testing.assert_array_equal(kept, [0, 1, 2])
    np.testing.assert_allclose(process.p_a.mass, process.p_x.mass)


def test_custom_row_sum_error_lists_rows():
    with pytest.raises(ValidationError, match=r"rows \[1\]"):
        build_custom(2, 2, [0.5, 0.5], [(0, 0, 1.0), (1, 0, 0.5)])


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


def test_conditional_reverse_identity_and_masked():
    identity, _ = build_custom(2, 2, [0.4, 0.6], [(0, 0, 1.0), (1, 1, 1.0)])
    np.testing.assert_allclose(conditional_reverse(identity),
                               np.eye(2), atol=1e-15)
    masked = build_hypercube(HypercubeConfig(1, 1.0, "random_mask"))
    np.testing.assert_allclose(conditional_reverse(masked),
                               [[0.5, 0.5]], atol=1e-15)


def test_conditional_reverse_half_mask_by_bayes():
    p = build_hypercube(HypercubeConfig(1, 0.5, "random_mask"))
    rev = conditional_reverse(p)
    # unmasked coordinate reveals the original; the mask is uninformative
    np.testing.assert_allclose(rev, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    np.testing.assert_allclose(rev.sum(axis=1), 1.0, atol=1e-12)


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
    np.testing.assert_allclose(loaded.p_a.mass, small_process.p_a.mass,
                               atol=1e-15)


def dump_process_oracle(path, process):
    """The dense writer ``dump_process`` replaced: every row of the dense
    table, its nonzero entries in column order."""
    dense = process.conditional_dense()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{process.n_x} {process.n_a}\n")
        fh.write(" ".join(f"{v:.17g}" for v in process.p_x.mass) + "\n")
        for i in range(process.n_x):
            for j in np.nonzero(dense[i])[0]:
                fh.write(f"{i} {j} {dense[i, j]:.17g}\n")


@pytest.mark.parametrize("scheme", ["random_mask", "block_mask",
                                    "block_mask_flip", "random_mask_flip"])
def test_dump_writes_the_stored_rows(tmp_path, monkeypatch, scheme):
    # random_mask and block_mask are stored sparse, the flip schemes dense
    process = build_hypercube(HypercubeConfig(5, 0.4, scheme))
    assert process.is_sparse == (scheme in ("random_mask", "block_mask"))
    dump_process_oracle(tmp_path / "oracle.txt", process)

    def refuse(self):
        raise AssertionError("the dense conditional table was formed")

    monkeypatch.setattr(AugmentationProcess, "conditional_dense", refuse)
    dump_process(tmp_path / "process.txt", process)
    assert (tmp_path / "process.txt").read_bytes() == \
        (tmp_path / "oracle.txt").read_bytes()


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
    np.testing.assert_allclose(process.p_a.mass, [0.5, 0.5])
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n0.5 0.5\n0 0 1.0\n")
    with pytest.raises(ValidationError):
        load_process(bad)


def test_sparse_storage_threshold():
    wide = build_hypercube(HypercubeConfig(6, 0.5, "random_mask"))
    assert wide.is_sparse  # density (2/3)^6 < 25%
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
    assert abs(process.p_a.mass.sum() - 1.0) <= 1e-12
    assert process.p_a.mass.min() > 0
    rows = process.conditional_dense().sum(axis=1)
    np.testing.assert_allclose(rows, 1.0, atol=1e-12)
    rev = conditional_reverse(process)
    np.testing.assert_allclose(rev.sum(axis=1), 1.0, atol=1e-12)
