"""A CSR table held as numpy arrays is the table scipy built, bit for bit.

``processes.CSRTable`` holds a sparse table's ``data``, ``indices`` and
``indptr``; the builds write them with numpy, and every product with the
table runs scipy's CSR kernels over the same arrays.  The scipy builds and
reads they replaced are kept here as labelled oracles: ``sp.kron`` for
random_mask, ``coo_array(...).tocsr()`` for block_mask, ``sp.csr_array``
of the dense table for a custom one, and scipy's products on a copy of the
table that scipy stored.  Everything must agree to the bit.
"""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from augrkhs import processes, spectral
from augrkhs.exceptions import ValidationError
from augrkhs.processes import (
    HypercubeConfig,
    build_custom,
    build_hypercube,
    dump_process,
)
from augrkhs.spectral import apply_gamma, apply_gamma_star, decompose, kernel_x
from conftest import stored_by_density

# at alpha 1 every random_mask row sits on the all-masked point, so the CSR
# table is pruned to that one column
_ALPHAS = (0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0)


def scipy_random_mask_table(config):
    """Oracle: the ``sp.kron`` power of the channel the numpy build
    replaced."""
    channel = sp.csr_array(processes._coordinate_channel(config))
    return functools.reduce(
        lambda acc, _: sp.csr_array(sp.kron(acc, channel, format="csr")),
        range(config.d_x - 1), channel)


def scipy_block_mask_table(config):
    """Oracle: the ``coo_array(...).tocsr()`` build the numpy one replaced,
    its entries enumerated point by point and block by block from the
    definition, the points by ``itertools.product``."""
    d, r = config.d_x, config.block_length
    n_pos = d - r + 1
    xs = list(itertools.product((-1, 1), repeat=d))
    support = sorted({x[:s] + (0,) * r + x[s + r:]
                      for x in xs for s in range(n_pos)})
    column = {a: j for j, a in enumerate(support)}
    cols = [column[x[:s] + (0,) * r + x[s + r:]]
            for x in xs for s in range(n_pos)]
    index = sp.get_index_dtype(maxval=len(xs) * n_pos)
    return sp.coo_array(
        (np.full(len(cols), 1.0 / n_pos),
         (np.repeat(np.arange(len(xs)), n_pos).astype(index),
          np.array(cols).astype(index))),
        shape=(len(xs), len(support))).tocsr()


def scipy_marginal(table, p_x):
    """Oracle: ``p_a`` as scipy's ``C^T @ p_x`` gave it, or the dense
    product of a dense table."""
    if sp.issparse(table):
        return np.asarray(table.T @ p_x).ravel()
    return table.T @ p_x


def scipy_assemble(table, p_x):
    """Oracle: the assembly of a table with scipy, ``(stored, p_a)``:
    zero-mass columns pruned through CSC, then stored as CSR (zeros
    eliminated) by the same size and density rule, or dense."""
    kept = np.nonzero(scipy_marginal(table, p_x) > 0.0)[0]
    if kept.size < table.shape[1]:
        table = (table.tocsc()[:, kept].tocsr() if sp.issparse(table)
                 else table[:, kept])
    nonzero = table.nnz if sp.issparse(table) else np.count_nonzero(table)
    entries = math.prod(table.shape)
    if (entries <= processes.DENSE_ENTRIES
            or nonzero / entries >= processes.SPARSE_DENSITY):
        stored = table.toarray() if sp.issparse(table) else table
    else:
        stored = sp.csr_array(table)
        stored.eliminate_zeros()
    return stored, scipy_marginal(stored, p_x)


def _assert_stored_as(process, stored, p_a):
    assert process.p_a.tobytes() == p_a.tobytes()
    if not sp.issparse(stored):
        assert not process.is_sparse
        assert process.conditional.tobytes() == stored.tobytes()
        return
    assert process.is_sparse
    table = process.conditional
    assert table.shape == stored.shape
    for got, want in ((table.data, stored.data),
                      (table.indices, stored.indices),
                      (table.indptr, stored.indptr)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("alpha", _ALPHAS)
@pytest.mark.parametrize("d_x", range(4, 11))
@pytest.mark.parametrize("scheme", ["random_mask", "block_mask"])
def test_build_equals_the_scipy_build(scheme, d_x, alpha):
    # by the density rule alone, so the tables below DENSE_ENTRIES entries
    # are built as CSR too
    config = HypercubeConfig(d_x, alpha, scheme)
    oracle = (scipy_random_mask_table if scheme == "random_mask"
              else scipy_block_mask_table)
    with stored_by_density():
        process = build_hypercube(config)
        stored, p_a = scipy_assemble(oracle(config), process.p_x)
    _assert_stored_as(process, stored, p_a)


def _custom_table(seed):
    """``(n_x, n_a, p_x, triples)`` of one to three entries per row of at
    least 16 columns.  An even seed leaves a third of the columns unused,
    so pruning drops them; an odd one puts column ``i % n_a`` in row ``i``
    of at least ``n_a`` rows, so every column is used."""
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        n_x, n_a = int(rng.integers(4, 25)), int(rng.integers(16, 65))
        used = rng.choice(n_a, size=2 * n_a // 3, replace=False)
    else:
        n_a = int(rng.integers(16, 41))
        n_x, used = n_a + int(rng.integers(0, 8)), np.arange(n_a)
    triples = []
    for i in range(n_x):
        support = rng.choice(used, size=int(rng.integers(1, 4 - seed % 2)),
                             replace=False)
        if seed % 2:
            support = np.union1d(support, [i % n_a])
        triples += zip([i] * support.size, support.tolist(),
                       rng.dirichlet(np.ones(support.size)).tolist())
    return n_x, n_a, rng.dirichlet(np.ones(n_x)), triples


def _custom_process(seed):
    with stored_by_density():
        return build_custom(*_custom_table(seed))[0]


@pytest.mark.parametrize("seed", range(8))
def test_custom_table_equals_the_scipy_table(seed):
    n_x, n_a, p_x, triples = _custom_table(seed)
    with stored_by_density():
        process, kept = build_custom(n_x, n_a, p_x, triples)
        # the dense table build_custom makes, by its own steps
        dense = np.zeros((n_x, n_a))
        for i, j, prob in triples:
            dense[i, j] += prob
        dense /= dense.sum(axis=1)[:, None]
        stored, p_a = scipy_assemble(dense, process.p_x)
    assert (kept.size < n_a) == (seed % 2 == 0)
    assert sp.issparse(stored)
    _assert_stored_as(process, stored, p_a)


# processes stored CSR: two hypercube tables above DENSE_ENTRIES entries
# and four custom ones, two of them pruned
_CSR_CASES = (HypercubeConfig(7, 0.5, "random_mask"),
              HypercubeConfig(9, 0.3, "block_mask"), 0, 1, 2, 3)


@functools.cache
def _csr_process(index):
    case = _CSR_CASES[index]
    if isinstance(case, HypercubeConfig):
        return build_hypercube(case)
    return _custom_process(case)


def scipy_copy(process):
    """The process's table as scipy stores it, from its dense form."""
    return sp.csr_array(process.conditional_dense())


def scipy_joint_table(process):
    """Oracle: the SVD route's ``B`` through scipy's sparse products."""
    sqrt_wx, sqrt_wa = np.sqrt(process.p_x), np.sqrt(process.p_a)
    return (scipy_copy(process).multiply(sqrt_wx[:, None])
            .multiply(1.0 / sqrt_wa).T.toarray())


@pytest.mark.parametrize("index", range(len(_CSR_CASES)))
def test_products_equal_those_of_the_scipy_copy(index):
    process = _csr_process(index)
    assert process.is_sparse
    C = scipy_copy(process)
    rng = np.random.default_rng(index)
    for k in (None, 1, 5):
        shape = () if k is None else (k,)
        f = rng.normal(size=(process.n_x,) + shape)
        weighted = f * process.p_x if k is None else f * process.p_x[:, None]
        joint = np.asarray(sp.csr_array(C.T) @ weighted)
        want = joint / (process.p_a if k is None else process.p_a[:, None])
        assert apply_gamma(process, f).tobytes() == want.tobytes()
        g = rng.normal(size=(process.n_a,) + shape)
        assert (apply_gamma_star(process, g).tobytes()
                == np.asarray(C @ g).tobytes())
    kernel = (C.multiply(1.0 / process.p_a) @ C.T).toarray()
    assert kernel_x(process).tobytes() == kernel.tobytes()


@pytest.mark.parametrize("index", range(len(_CSR_CASES)))
def test_transpose_is_one_view_of_the_table(index):
    # made once, on the table's own read-only arrays, not a copy of them
    table = _csr_process(index).conditional
    transpose = table.T
    assert table.T is transpose
    assert transpose.shape == table.shape[::-1]
    for view, array in ((transpose.data, table.data),
                        (transpose.indices, table.indices),
                        (transpose.indptr, table.indptr)):
        assert view.shape == array.shape
        assert np.shares_memory(view, array)
        assert not view.flags.writeable


@pytest.mark.parametrize("index", range(len(_CSR_CASES)))
def test_svd_route_equals_that_of_the_scipy_copy(index, monkeypatch):
    process = dataclasses.replace(_csr_process(index), hypercube=None)
    assert (spectral._joint_table(process).tobytes()
            == scipy_joint_table(process).tobytes())
    dec = decompose(process)
    monkeypatch.setattr(spectral, "_joint_table", scipy_joint_table)
    oracle = decompose(process)
    for name in ("lambdas", "psi", "phi"):
        assert (getattr(dec, name).tobytes()
                == getattr(oracle, name).tobytes()), name


def dump_process_by_scipy(path, process):
    """Oracle: the writer that read the stored entries through
    ``sp.coo_array``."""
    C = process.conditional
    entries = sp.coo_array(C.csr_array if process.is_sparse else C)
    entries.sum_duplicates()
    keep = entries.data != 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{process.n_x} {process.n_a}\n")
        fh.write(" ".join(f"{v:.17g}" for v in process.p_x) + "\n")
        fh.writelines(f"{i} {j} {v:.17g}\n" for i, j, v in zip(
            entries.row[keep].tolist(), entries.col[keep].tolist(),
            entries.data[keep].tolist()))


@pytest.mark.parametrize("scheme,d_x,alpha", [
    ("random_mask", 7, 0.5), ("block_mask", 9, 0.3),
    ("random_mask", 5, 0.3), ("block_mask_flip", 5, 0.5)])
def test_dump_writes_the_bytes_of_the_scipy_writer(tmp_path, scheme, d_x,
                                                   alpha):
    # the first two are stored CSR, the last two dense
    process = build_hypercube(HypercubeConfig(d_x, alpha, scheme))
    assert process.is_sparse == (d_x > 6)
    dump_process(tmp_path / "process.txt", process)
    dump_process_by_scipy(tmp_path / "oracle.txt", process)
    assert ((tmp_path / "process.txt").read_bytes()
            == (tmp_path / "oracle.txt").read_bytes())


def test_a_scipy_table_is_refused():
    # a process takes its table as a dense ndarray or a CSRTable: a scipy
    # array, or a nested list, is not converted, and the message names its
    # type
    dense = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    for table in (sp.csr_array(dense), sp.coo_array(dense), dense.tolist()):
        with pytest.raises(ValidationError, match=(
                "^conditional must be an ndarray or a CSRTable, got "
                f"{type(table).__name__}$")):
            processes.AugmentationProcess(p_x=np.array([0.5, 0.5]),
                                          conditional=table)
