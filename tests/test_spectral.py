import dataclasses
import math
import os
import re
import traceback
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from augrkhs import complexity, processes, spectral
from augrkhs.exceptions import ValidationError
from augrkhs.processes import (
    SCHEMES,
    HypercubeConfig,
    build_custom,
    build_hypercube,
)
from augrkhs.spectral import (
    apply_gamma,
    apply_gamma_star,
    apply_joint,
    decompose,
    export_decomposition,
    kernel_x,
    verify_integral_identity,
)

from conftest import stored_by_density, svd_oracle, weighted_norm


def duality_residual(dec):
    """The duality residual of ``dec``'s pairs, measured afresh."""
    return spectral._duality_residual(dec.process, dec.lambdas, dec.psi,
                                      dec.phi)


def eig_oracle(process):
    """Independent spectrum route: symmetric eigenproblem on the weighted kernel.

    Eigenvalues of x -> K_X weighted by p_x, via the similarity transform
    sqrt(p_x) K_X sqrt(p_x), solved with a different LAPACK driver than the
    SVD used by decompose.
    """
    KX = kernel_x(process)
    s = np.sqrt(process.p_x)
    sym = KX * s[:, None] * s[None, :]
    return np.sort(sla.eigh(sym, eigvals_only=True))[::-1]


def test_kernel_x_identity_process():
    process, _ = build_custom(3, 3, [0.2, 0.3, 0.5],
                              [(i, i, 1.0) for i in range(3)])
    expected = np.diag(1.0 / np.array([0.2, 0.3, 0.5]))
    np.testing.assert_allclose(kernel_x(process), expected, atol=1e-12)


def test_kernel_x_half_mask_hand_values():
    p = build_hypercube(HypercubeConfig(1, 0.5, "random_mask"))
    np.testing.assert_allclose(kernel_x(p), [[1.5, 0.5], [0.5, 1.5]],
                               atol=1e-15)


def test_kernel_x_fully_masked_is_constant():
    p = build_hypercube(HypercubeConfig(2, 1.0, "random_mask"))
    np.testing.assert_allclose(kernel_x(p), 1.0, atol=1e-15)


def test_gamma_of_constants():
    p = build_hypercube(HypercubeConfig(2, 0.4, "random_mask"))
    np.testing.assert_allclose(apply_gamma(p, np.ones(p.n_x)), 1.0,
                               atol=1e-12)
    np.testing.assert_allclose(apply_gamma_star(p, np.ones(p.n_a)), 1.0,
                               atol=1e-12)


def test_gamma_posterior_means_one_bit():
    p = build_hypercube(HypercubeConfig(1, 0.5, "random_mask"))
    f = np.array([-1.0, 1.0])  # f(x) = x under the -1 < +1 ordering
    np.testing.assert_allclose(apply_gamma(p, f), [-1.0, 0.0, 1.0],
                               atol=1e-15)


def test_gamma_adjointness(small_process):
    p = small_process
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = rng.normal(size=p.n_x)
        g = rng.normal(size=p.n_a)
        lhs = float(np.sum(apply_gamma(p, f) * g * p.p_a))
        rhs = float(np.sum(f * apply_gamma_star(p, g) * p.p_x))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_gamma_length_mismatch():
    p = build_hypercube(HypercubeConfig(1, 0.5, "random_mask"))
    with pytest.raises(ValidationError):
        apply_gamma(p, np.ones(3))
    with pytest.raises(ValidationError):
        apply_gamma_star(p, np.ones(2))


def csr_transpose(table):
    """Oracle: the hand-built CSR copy of a :class:`processes.CSRTable`'s
    transpose that scipy's view replaced.  Row ``a`` holds column ``a``'s
    entries in increasing row order, as scipy's CSR-to-CSC conversion
    orders them."""
    order = np.argsort(table.indices, kind="stable")
    return processes._csr(table.data[order], table.entry_rows()[order],
                          np.bincount(table.indices, minlength=table.shape[1]),
                          table.shape[::-1])


def _assert_joint_matches_column_major_route(process, rng):
    """``apply_joint`` against the table's own ``.T`` (a new view per call),
    and on a CSR table against the hand-built transpose, bit for bit: on a
    vector and on C- and F-ordered stacks of functions."""
    p_x = process.p_x
    table = process.conditional
    transposes = ([table.csr_array.T, csr_transpose(table)]
                  if process.is_sparse else [table.T])
    stack = rng.normal(size=(process.n_x, int(rng.integers(2, 6))))
    for f in (rng.normal(size=process.n_x), stack, np.asfortranarray(stack)):
        weighted = f * p_x if f.ndim == 1 else f * p_x[:, None]
        got = apply_joint(process, f)
        for transpose in transposes:
            want = np.asarray(transpose @ weighted)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@st.composite
def sparse_custom_processes(draw):
    """A custom process with one to three entries per row, sparse-stored."""
    n_x, n_a = draw(st.integers(2, 16)), draw(st.integers(12, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    triples = []
    for i in range(n_x):
        support = rng.choice(n_a, size=int(rng.integers(1, 4)), replace=False)
        for j, prob in zip(support, rng.dirichlet(np.ones(support.size))):
            triples.append((i, int(j), float(prob)))
    with stored_by_density():
        process, _ = build_custom(n_x, n_a, rng.dirichlet(np.ones(n_x)),
                                  triples)
    assume(process.is_sparse)
    return process, int(rng.integers(2**31))


@settings(max_examples=100, deadline=None)
@given(sparse_custom_processes())
def test_joint_on_the_transpose_matches_the_table_on_custom(case):
    process, seed = case
    _assert_joint_matches_column_major_route(
        process, np.random.default_rng(seed))


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("d_x", [4, 7])
@pytest.mark.parametrize("scheme", ["random_mask", "block_mask",
                                    "block_mask_flip"])
def test_joint_on_the_transpose_matches_the_table_on_schemes(
        process_cache, scheme, d_x, alpha):
    # every table at d_x 4 is stored dense by size, block_mask at d_x 7 at
    # alpha 0.9 by density; block_mask_flip is always dense
    process = process_cache(scheme, d_x, alpha)
    _assert_joint_matches_column_major_route(
        process, np.random.default_rng(d_x))


@pytest.mark.parametrize("d_x", range(4, 9))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_joint_on_a_csr_table_matches_the_hand_built_transpose(scheme, d_x):
    # every table here is multiplied in CSR: one stored dense, by size or
    # (the flip schemes) by density, is converted to its nonzero entries
    rng = np.random.default_rng(d_x)
    for alpha in (0.2, 0.5, 1.0):
        process = build_hypercube(HypercubeConfig(d_x, alpha, scheme))
        if not process.is_sparse:
            process = dataclasses.replace(process, conditional=(
                processes._from_dense(process.conditional)))
        _assert_joint_matches_column_major_route(process, rng)


def test_decompose_identity_process_all_ones():
    process, _ = build_custom(4, 4, [0.25] * 4,
                              [(i, i, 1.0) for i in range(4)])
    dec = decompose(process)
    np.testing.assert_allclose(dec.lambdas, 1.0, atol=1e-12)
    np.testing.assert_allclose(dec.psi[:, 0], 1.0, atol=1e-8)


def test_decompose_one_bit_parity():
    p = build_hypercube(HypercubeConfig(1, 0.5, "random_mask"))
    dec = decompose(p)
    np.testing.assert_allclose(dec.lambdas, [1.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(np.abs(dec.psi[:, 1]), 1.0, atol=1e-10)
    assert dec.psi[0, 1] * dec.psi[1, 1] < 0


def test_decompose_matches_eig_oracle(small_process, small_decomposition):
    oracle = eig_oracle(small_process)
    np.testing.assert_allclose(small_decomposition.lambdas,
                               oracle[: small_decomposition.rank], atol=1e-10)


def test_random_mask_spectrum_law_small(process_cache):
    # eigenvalues are (1-alpha)^k with binomial multiplicities; decompose
    # takes them from that law, so the SVD oracle is what checks it
    for d_x, alpha in [(2, 0.5), (3, 0.3), (4, 0.7)]:
        process = process_cache("random_mask", d_x, alpha)
        law = sorted(
            ((1 - alpha) ** k for k in range(d_x + 1)
             for _ in range(math.comb(d_x, k))),
            reverse=True)
        np.testing.assert_allclose(svd_oracle(process).lambdas, law,
                                   atol=1e-10)
        np.testing.assert_allclose(decompose(process).lambdas, law,
                                   atol=1e-10)


def _clusters(lambdas, gap=1e-4):
    """Index ranges of eigenvalue clusters split at gaps above ``gap``.

    An SVD resolves an eigenspace only to about its rounding error over the
    gap to the rest of the spectrum, so projectors are compared per cluster
    of eigenvalues that no such gap splits; exact ties never straddle one.
    """
    starts = [0] + [i for i in range(1, lambdas.size)
                    if lambdas[i - 1] - lambdas[i] > gap]
    return list(zip(starts, starts[1:] + [lambdas.size]))


def svd_eigenvalue_error(process, lam):
    """Bound on the SVD oracle's error in an eigenvalue ``lam = s^2``.

    A backward-stable SVD returns each singular value of the symmetrized
    table ``B`` within ``p(m, n) eps ||B||_2`` of the exact one, with
    ``||B||_2 = 1`` here and the growth factor ``p(m, n)`` taken as
    ``max(|A|, |X|)``; squaring turns an error ``delta`` in ``s`` into at
    most ``2 s delta + delta^2`` in ``lam``.
    """
    delta = max(process.n_a, process.n_x) * np.finfo(float).eps
    return 2.0 * math.sqrt(lam) * delta + delta * delta


def assert_law_matches_oracle(process):
    """The subset-law route against the SVD oracle on one hypercube process.

    Eigenvalues within the oracle's error bound of the rank tolerance are
    disputed: the oracle may keep or drop each of them, so inside that band
    only their location is checked.  Returns the law route's decomposition.
    """
    law = decompose(process)
    oracle = svd_oracle(process)
    tol = spectral._RANK_TOL
    band = svd_eigenvalue_error(process, tol)
    config = process.hypercube
    full = spectral._subset_law(config, spectral._subset_bits(config.d_x))
    n_sure = int(np.count_nonzero(full > tol + band))
    n_disputed = int(np.count_nonzero(np.abs(full - tol) <= band))
    assert n_sure <= oracle.rank <= n_sure + n_disputed
    assert n_sure <= law.rank <= n_sure + n_disputed
    # as multisets: each route orders near-ties by its own psi
    lam_law = np.sort(law.lambdas)[::-1]
    lam_oracle = np.sort(oracle.lambdas)[::-1]
    np.testing.assert_allclose(lam_oracle[:n_sure], lam_law[:n_sure],
                               rtol=0, atol=1e-12)
    assert np.all(np.abs(lam_law[n_sure:] - tol) <= band)
    # a disputed eigenvalue's computed value carries its own error as well
    assert np.all(np.abs(lam_oracle[n_sure:] - tol) <= 2.0 * band)
    sqrt_px = np.sqrt(process.p_x)[:, None]
    for start, stop in _clusters(law.lambdas[:n_sure]):
        a = law.psi[:, start:stop] * sqrt_px
        b = oracle.psi[:, start:stop] * sqrt_px
        np.testing.assert_allclose(a @ a.T, b @ b.T, rtol=0, atol=1e-10)
    # every column is an eigenpair, certified or not: Gamma* Gamma psi = lambda psi
    resid = apply_gamma_star(process, apply_gamma(process, law.psi)) \
        - law.psi * law.lambdas
    assert np.sqrt(np.max((resid * resid).T @ process.p_x)) <= 1e-12
    spectral._validate_decomposition(law)
    # the first read of phi runs its checks
    assert law.checked_duality_residual <= spectral._DUALITY_TOL
    return law


# pinned: at random_mask d_x 8 alpha 0.99999, lambda_{|S|=2} lies 9e-22 below
# the rank tolerance, and the SVD keeps one of its 28 copies
@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SCHEMES), st.integers(1, 8), st.floats(1e-12, 1.0))
@example(scheme="random_mask", d_x=8, alpha=0.99999)
def test_subset_law_matches_svd_oracle(scheme, d_x, alpha):
    assert_law_matches_oracle(build_hypercube(HypercubeConfig(d_x, alpha, scheme)))


def hand_written_law(config, bits):
    """The random schemes' subset law with the mask probability written out
    per scheme, without ``HypercubeConfig.mask_prob``: the oracle of
    ``_subset_law``'s one random branch."""
    size = bits.sum(axis=1)
    if config.scheme == "random_mask":
        miss = (1.0 - config.alpha) ** size
    else:  # random_mask_flip
        miss = (1.0 - config.alpha / 2.0) ** size
    return miss * (1.0 - 2.0 * config.flip_prob) ** (2 * size)


@pytest.mark.parametrize("scheme", ["random_mask", "random_mask_flip"])
def test_subset_law_equals_the_hand_written_oracle(scheme):
    # bytes, so the sign of each zero is compared too
    bits = spectral._subset_bits(4)
    for alpha in [1e-9] + [i / 200 for i in range(1, 201)]:
        config = HypercubeConfig(4, alpha, scheme)
        assert (spectral._subset_law(config, bits).tobytes()
                == hand_written_law(config, bits).tobytes()), alpha


def test_subset_law_without_a_spectral_gap():
    process = build_hypercube(HypercubeConfig(3, 1e-9, "random_mask"))
    dec = decompose(process)
    law = sorted(((1 - 1e-9) ** k for k in range(4)
                  for _ in range(math.comb(3, k))), reverse=True)
    np.testing.assert_array_equal(dec.lambdas, law)
    np.testing.assert_array_equal(dec.psi[:, 0], 1.0)


def test_svd_route_keeps_the_constant_without_a_spectral_gap():
    # the gap below lambda = 1 is 1e-9: the constant pair is deflated from
    # the table, not sought among its near-degenerate neighbours
    hyper = build_hypercube(HypercubeConfig(2, 1e-9, "random_mask"))
    dense = hyper.conditional_dense()
    custom, _ = build_custom(
        hyper.n_x, hyper.n_a, hyper.p_x,
        [(i, j, dense[i, j]) for i, j in zip(*np.nonzero(dense))])
    assert custom.hypercube is None
    dec = decompose(custom)
    np.testing.assert_array_equal(dec.psi[:, 0], 1.0)
    law = [(1 - 1e-9) ** k for k in range(3) for _ in range(math.comb(2, k))]
    np.testing.assert_allclose(dec.lambdas, law, rtol=0, atol=1e-12)


def test_svd_route_with_zero_rank_tol():
    # the deflated constant leaves a rounding-level singular value behind;
    # the rank tolerance drops it, so it does not come back as a second
    # constant
    rows = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.5, 0.3, 0.2]])
    process, _ = build_custom(3, 3, [0.2, 0.3, 0.5],
                              [(i, j, rows[i, j]) for i in range(3)
                               for j in range(3)])
    assert decompose(process).rank == 2


def test_subset_law_rank_at_tolerance():
    # lambda_min = (0.65 * 0.3^2)^8 = 1.4e-10 is kept, 8.1e-12 is not
    process = build_hypercube(HypercubeConfig(9, 0.7, "random_mask_flip"))
    assert assert_law_matches_oracle(process).rank == 511


def test_custom_process_takes_the_svd_route(small_process):
    dense = small_process.conditional_dense()
    custom, _ = build_custom(
        small_process.n_x, small_process.n_a, small_process.p_x,
        [(i, j, dense[i, j]) for i, j in zip(*np.nonzero(dense))])
    assert custom.hypercube is None
    dec = decompose(custom)
    lambdas, psi, form_phi = spectral._spectral_engine(custom)
    lambdas, psi, phi = _tie_ordered(lambdas, psi, form_phi())
    for got, want in ((dec.lambdas, lambdas), (dec.psi, psi), (dec.phi, phi)):
        assert got.tobytes() == want.tobytes()


def test_decomposition_invariants(decomp_cache):
    for scheme, d_x, alpha in [("random_mask", 4, 0.5),
                               ("block_mask", 6, 0.3),
                               ("block_mask_flip", 4, 0.7)]:
        dec = decomp_cache(scheme, d_x, alpha)
        p = dec.process
        assert dec.lambdas[0] == pytest.approx(1.0, abs=1e-10)
        assert dec.lambdas.min() > spectral._RANK_TOL
        assert dec.lambdas.max() <= 1.0 + 1e-10
        np.testing.assert_allclose(dec.psi[:, 0], 1.0, atol=1e-8)
        gram_psi = (dec.psi * p.p_x[:, None]).T @ dec.psi
        gram_phi = (dec.phi * p.p_a[:, None]).T @ dec.phi
        np.testing.assert_allclose(gram_psi, np.eye(dec.rank), atol=1e-8)
        np.testing.assert_allclose(gram_phi, np.eye(dec.rank), atol=1e-8)


def test_duality_both_directions(small_decomposition):
    dec = small_decomposition
    p = dec.process
    for i in range(dec.rank):
        if dec.lambdas[i] <= 1e-6:
            continue
        root = np.sqrt(dec.lambdas[i])
        psi_back = apply_gamma_star(p, dec.phi[:, i]) / root
        phi_back = apply_gamma(p, dec.psi[:, i]) / root
        assert weighted_norm(psi_back - dec.psi[:, i], p.p_x) <= 1e-8
        assert weighted_norm(phi_back - dec.phi[:, i], p.p_a) <= 1e-8


def test_duality_residual_measures_a_perturbed_pair(small_decomposition):
    dec = small_decomposition
    p = dec.process
    assert 0.0 <= duality_residual(dec) <= 1e-8
    # shift one psi column by a known p_x-norm; the worst residual reports it
    delta = np.zeros(p.n_x)
    delta[0] = 1e-3
    psi = dec.psi.copy()
    psi[:, 1] += delta
    bent = dataclasses.replace(dec, psi=psi)
    expected = weighted_norm(delta, p.p_x)
    assert duality_residual(bent) == pytest.approx(expected, rel=1e-4)
    # the copy shares its source's phi holder, so the residual phi's checks
    # measured belongs to the psi decompose gave
    assert bent.phi is dec.phi
    assert bent.checked_duality_residual == dec.checked_duality_residual \
        == duality_residual(dec)


def test_reconstruction_of_symmetrized_joint(small_decomposition):
    dec = small_decomposition
    p = dec.process
    B = (p.conditional_dense() * np.sqrt(p.p_x)[:, None]
         / np.sqrt(p.p_a)[None, :]).T
    U = dec.phi * np.sqrt(p.p_a)[:, None]
    V = dec.psi * np.sqrt(p.p_x)[:, None]
    rebuilt = (U * np.sqrt(dec.lambdas)) @ V.T
    assert np.linalg.norm(B - rebuilt) <= 1e-8


def test_integral_identity_identity_process():
    process, _ = build_custom(3, 3, [0.25, 0.25, 0.5],
                              [(i, i, 1.0) for i in range(3)])
    assert verify_integral_identity(decompose(process)) <= 1e-14


def test_integral_identity_random_mask_indicators():
    p = build_hypercube(HypercubeConfig(2, 0.3, "random_mask"))
    # the identity's columns are the point indicators
    assert verify_integral_identity(decompose(p)) <= 1e-12


def test_integral_identity_block_seeded_vectors():
    p = build_hypercube(HypercubeConfig(4, 0.5, "block_mask"))
    # the routes are linear, so the indicators cover every vector
    assert verify_integral_identity(decompose(p)) <= 1e-10


def integral_identity_by_diagonal_products(dec):
    """Oracle for ``verify_integral_identity``: its residual with the p_x
    weight applied as a dense product by ``diag(p_x)``, not by scaling the
    columns.  The zeros off the diagonal add nothing, so the two agree to
    the bit."""
    process = dec.process
    F = np.eye(process.n_x)
    op_route = apply_gamma_star(process, apply_gamma(process, F))
    weighted = F * process.p_x[:, None]
    kernel_route = kernel_x(process) @ weighted
    spectral_route = ((dec.psi * dec.lambdas) @ dec.psi.T) @ weighted
    return max(float(np.max(np.abs(op_route - kernel_route))),
               float(np.max(np.abs(spectral_route - kernel_route))))


def _random_custom_process(seed):
    """A custom process of up to 24 x 48 points, stored by the density rule
    alone: dense-stored for an even ``seed``, sparse-stored (one to three
    entries per row) for an odd one."""
    rng = np.random.default_rng(seed)
    n_x, n_a = int(rng.integers(2, 25)), int(rng.integers(13, 49))
    most = 3 if seed % 2 else n_a
    triples = []
    for i in range(n_x):
        support = rng.choice(n_a, size=int(rng.integers(1, most + 1)),
                             replace=False)
        for j, prob in zip(support, rng.dirichlet(np.ones(support.size))):
            triples.append((i, int(j), float(prob)))
    with stored_by_density():
        return build_custom(n_x, n_a, rng.dirichlet(np.ones(n_x)), triples)[0]


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("d_x", [3, 5, 7, 9])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_integral_identity_equals_the_diagonal_product_oracle(scheme, d_x,
                                                              alpha):
    # built here, not cached: a d_x 9 process and its phi hold 80 MB each
    dec = decompose(build_hypercube(HypercubeConfig(d_x, alpha, scheme)))
    assert (verify_integral_identity(dec)
            == integral_identity_by_diagonal_products(dec))


@pytest.mark.parametrize("seed", range(10))
def test_integral_identity_equals_the_oracle_on_custom(seed):
    dec = decompose(_random_custom_process(seed))
    assert (verify_integral_identity(dec)
            == integral_identity_by_diagonal_products(dec))


def duality_residual_by_gather(dec):
    """The duality residual with the certified columns of ``phi`` gathered
    on every table, as phi's checks measured it before a sparse table with
    every pair certified took ``phi`` itself; kept as their oracle."""
    certified = dec.lambdas > 1e-6
    if not certified.any():
        return 0.0
    back = apply_gamma_star(dec.process, dec.phi[:, certified])
    back /= np.sqrt(dec.lambdas[certified])[None, :]
    resid = back - dec.psi[:, certified]
    return float(np.sqrt(np.max(np.sum(resid * resid
                                       * dec.process.p_x[:, None], axis=0))))


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("d_x", [3, 5, 7, 8])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_duality_residual_equals_the_gather_oracle(scheme, d_x, alpha):
    # random_mask and block_mask at alpha 0.2 are stored sparse, with every
    # pair certified
    dec = decompose(build_hypercube(HypercubeConfig(d_x, alpha, scheme)))
    assert dec.checked_duality_residual == duality_residual_by_gather(dec)


@pytest.mark.parametrize("seed", range(10))
def test_duality_residual_equals_the_gather_oracle_on_custom(seed):
    dec = decompose(_random_custom_process(seed))
    assert dec.checked_duality_residual == duality_residual_by_gather(dec)


def test_first_phi_read_holds_two_phis():
    # phi formed, plus one array of its size (the tie-order permutation,
    # then the weighted copy of the orthonormality check), plus a few
    # |X| x rank products of the checks; a read on another decomposition
    # first, so that caches numpy and scipy fill once per process are not
    # counted
    process = build_hypercube(HypercubeConfig(7, 0.5, "random_mask"))
    assert process.is_sparse
    decompose(process).phi
    dec = decompose(process)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dec.phi
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    admitted = 2 * process.n_a * dec.rank + 4 * process.n_x * dec.rank
    assert peak <= 8 * admitted, (peak, 8 * admitted)


def test_first_phi_read_holds_one_phi_on_a_sparse_table():
    # phi formed, plus two blocks of its rows (the tie permutation's, then
    # the orthonormality check's weighted rows, the block before them not
    # yet dropped), plus a few |X| x rank arrays (the characters phi is
    # formed from, the products of the checks); a sparse table with every
    # pair certified gathers no columns for the duality check.  A read on
    # another decomposition first, so that caches numpy and scipy fill once
    # per process are not counted
    process = build_hypercube(HypercubeConfig(7, 0.5, "random_mask"))
    assert process.is_sparse
    decompose(process).phi
    dec = decompose(process)
    assert spectral._tie_order(*spectral._walsh_engine(process)[:2]) is not None
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dec.phi
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    rank = dec.rank
    block = max(spectral._PERMUTE_BLOCK_ENTRIES,
                spectral._GRAM_BLOCK_ROWS * rank)
    admitted = process.n_a * rank + 2 * block + 4 * process.n_x * rank
    assert peak <= 8 * admitted, (peak, 8 * admitted)


def _permuted_hypercube_process(seed):
    """A hypercube table with its points shuffled, built as a custom
    process, so it takes the SVD route: its eigenvalues tie as the
    scheme's do, and the shuffle leaves its tie blocks out of order."""
    rng = np.random.default_rng(seed)
    scheme = SCHEMES[seed % len(SCHEMES)]
    table = build_hypercube(HypercubeConfig(
        4, float(rng.choice([0.2, 0.5])), scheme)).conditional_dense()
    table = table[rng.permutation(table.shape[0])][
        :, rng.permutation(table.shape[1])]
    rows, cols = np.nonzero(table)
    return build_custom(*table.shape, np.full(table.shape[0],
                                              1.0 / table.shape[0]),
                        zip(rows.tolist(), cols.tolist(),
                            table[rows, cols].tolist()))[0]


def _assert_tie_permutation_equals_take(dec, engine):
    """``decompose``'s in-place tie permutation against its oracle,
    ``np.take`` of the engine's arrays by ``_tie_order``, to the bit."""
    lambdas, psi, form_phi = engine(dec.process)
    order = spectral._tie_order(lambdas, psi)
    assert order is not None  # the permutation moves columns
    assert dec.lambdas.tobytes() == lambdas[order].tobytes()
    assert dec.psi.tobytes() == np.take(psi, order, axis=1).tobytes()
    assert dec.phi.tobytes() == np.take(form_phi(), order, axis=1).tobytes()


@pytest.mark.parametrize("d_x,alpha", [(5, 0.2), (7, 0.2), (7, 0.5)])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_tie_permutation_equals_the_take_oracle(scheme, d_x, alpha):
    # at d_x 7 the product schemes' phi has 2187 rows, four blocks of the
    # permutation and a last one that is shorter
    process = build_hypercube(HypercubeConfig(d_x, alpha, scheme))
    _assert_tie_permutation_equals_take(decompose(process),
                                        spectral._walsh_engine)


@pytest.mark.parametrize("seed", range(10))
def test_tie_permutation_equals_the_take_oracle_on_custom(seed):
    process = _permuted_hypercube_process(seed)
    assert process.hypercube is None
    _assert_tie_permutation_equals_take(decompose(process),
                                        spectral._spectral_engine)


def gram_defect_whole(f, weights):
    """The orthonormality defect from one product over all rows of the
    weighted copy, which the blocked sum replaced; kept as its oracle."""
    w = f * np.sqrt(weights)[:, None]
    return float(np.max(np.abs(w.T @ w - np.eye(f.shape[1]))))


@pytest.mark.parametrize("scheme,d_x,alpha", [
    ("random_mask", 7, 0.5), ("random_mask_flip", 7, 0.8),
    ("block_mask_flip", 8, 0.2), ("random_mask", 8, 0.2)])
def test_gram_defect_equals_the_whole_product_oracle(scheme, d_x, alpha):
    # 2187 and 6561 rows: several blocks of rows and a shorter last one
    dec = decompose(build_hypercube(HypercubeConfig(d_x, alpha, scheme)))
    process = dec.process
    for f, weights in ((dec.phi, process.p_a), (dec.psi, process.p_x)):
        assert abs(spectral._gram_defect(f, weights)
                   - gram_defect_whole(f, weights)) <= 1e-14


@pytest.mark.parametrize("rows", [1, 511, 512, 513, 1537])
def test_gram_defect_equals_the_whole_product_oracle_off_identity(rows):
    # columns far from orthonormal, so a block left out would show
    rng = np.random.default_rng(rows)
    f = rng.standard_normal((rows, 3))
    weights = rng.dirichlet(np.ones(rows))
    assert abs(spectral._gram_defect(f, weights)
               - gram_defect_whole(f, weights)) <= 1e-14


def test_gram_defect_holds_one_gram_beside_one_block():
    # psi of a d_x 8 table: 256 x 256, one block of rows.  The weighted
    # block and its Gram matrix are two arrays of f's size; no identity
    # sits beside them
    f = np.random.default_rng(0).standard_normal((256, 256))
    weights = np.full(256, 1.0 / 256)
    spectral._gram_defect(f, weights)
    tracemalloc.start()
    try:
        spectral._gram_defect(f, weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * f.nbytes


@pytest.mark.parametrize("d", range(1, 10))
def test_characters_equal_the_integer_product_oracle(d):
    # the characters from a 0/1 matrix product of the subset bits, which
    # the parity of the subset codes replaced; kept as their oracle
    bits = spectral._subset_bits(d)
    subsets = np.random.default_rng(d).permutation(2**d)
    want = 1.0 - 2.0 * (((1 - bits) @ bits[subsets].T) % 2)
    assert spectral._characters(d, subsets).tobytes() == want.tobytes()


@pytest.mark.parametrize("scheme,d_x", [("block_mask", 8),
                                         ("block_mask_flip", 7),
                                         ("random_mask", 6)])
def test_reconstruction_residual_fits_the_guard(process_cache, decomp_cache,
                                                scheme, d_x):
    # the spectrum cell admits RESIDUAL_ARRAYS |X| x |X| arrays, and the
    # build admitted the |X| x |A| table, whose size the operator route's
    # one |A| x |X| array has; one call first, so that caches numpy and
    # scipy fill once per process are not counted
    process = process_cache(scheme, d_x, 0.5)
    dec = decomp_cache(scheme, d_x, 0.5)
    verify_integral_identity(dec)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        verify_integral_identity(dec)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n_x, n_a = process.n_x, process.n_a
    admitted = spectral.RESIDUAL_ARRAYS * n_x * n_x + n_x * n_a
    assert peak <= 8 * admitted, (peak, 8 * admitted)


def test_eigenvalue_indexing(small_decomposition):
    dec = small_decomposition
    assert dec.eigenvalue(1) == pytest.approx(1.0, abs=1e-10)
    assert dec.eigenvalue(dec.rank + 5) == 0.0
    with pytest.raises(ValidationError):
        dec.eigenvalue(0)


def test_export_decomposition(tmp_path, small_decomposition):
    paths = export_decomposition(small_decomposition, tmp_path, stem="dec")
    lam = np.loadtxt(paths["lambdas"], skiprows=1)
    np.testing.assert_allclose(lam, small_decomposition.lambdas, rtol=1e-15)
    psi = np.loadtxt(paths["psi"], skiprows=1, delimiter=",")
    np.testing.assert_allclose(psi, small_decomposition.psi, rtol=1e-15)
    phi = np.loadtxt(paths["phi"], skiprows=1, delimiter=",")
    np.testing.assert_allclose(phi, small_decomposition.phi, rtol=1e-15)


def _temporaries(directory):
    return sorted(set(os.listdir(directory)) - {"out.csv"})


def test_replacing_writes_a_hex_named_temporary_next_to_the_target(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("run 0\n", encoding="utf-8")
    names = []
    for run in (1, 2):
        with spectral._replacing(str(target)) as fh:
            fh.write(f"run {run}\n")
            names += _temporaries(tmp_path)
            assert target.read_text(encoding="utf-8") == f"run {run - 1}\n"
        assert _temporaries(tmp_path) == []
        assert target.read_text(encoding="utf-8") == f"run {run}\n"
    assert len(names) == 2 and names[0] != names[1]
    for name in names:
        assert re.fullmatch(r"out\.csv\.[0-9a-f]{16}\.tmp", name), name


def test_replacing_keeps_the_target_on_error(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old\r\n")
    with pytest.raises(RuntimeError, match="mid-write"):
        with spectral._replacing(str(target)) as fh:
            fh.write("partial")
            fh.flush()
            assert len(_temporaries(tmp_path)) == 1
            raise RuntimeError("mid-write")
    assert target.read_bytes() == b"old\r\n"
    assert _temporaries(tmp_path) == []


def _export_row_by_row(dec, out_dir, stem):
    """The row-by-row writer the block export replaced, kept as its oracle."""
    paths = {}
    for name, M in (("lambdas", dec.lambdas[:, None]), ("psi", dec.psi),
                    ("phi", dec.phi)):
        paths[name] = os.path.join(out_dir, f"{stem}_{name}.csv")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write("lambda\n" if name == "lambdas" else
                     ",".join(f"{name}_{i + 1}" for i in range(M.shape[1])) + "\n")
            for row in M:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return paths


def _assert_same_bytes(dec, tmp_path):
    new = export_decomposition(dec, tmp_path / "block", stem="dec")
    (tmp_path / "rows").mkdir()
    old = _export_row_by_row(dec, tmp_path / "rows", stem="dec")
    for name in ("lambdas", "psi", "phi"):
        with open(new[name], "rb") as a, open(old[name], "rb") as b:
            assert a.read() == b.read(), name


_EDGE_VALUES = [-0.0, 0.0, 5e-324, 1.7976931348623157e308,
                -1.7976931348623157e308, 1 / 3, np.nextafter(1 / 3, 1)]


def _edge_matrix(rng, rows, cols):
    """Edge values (the first row holds each one) mixed with random draws."""
    M = rng.choice(_EDGE_VALUES + list(rng.standard_normal(5)), size=(rows, cols))
    M.flat[:len(_EDGE_VALUES)] = _EDGE_VALUES[:M.size]
    return M


@pytest.mark.parametrize("case", range(6))
def test_export_matches_row_formatter(tmp_path, small_process, case):
    # rows: 1, one block less one, one block, one block plus one, several;
    # the last case has phi rows longer than a block
    def rows(cols):
        block = spectral._BLOCK_ENTRIES // cols
        return [1, block - 1, block, block + 1, 3 * block + 2, 3][case]

    phi_cols = spectral._BLOCK_ENTRIES + 1 if case == 5 else 9
    rng = np.random.default_rng(case)
    lambdas = _edge_matrix(rng, rows(1), 1)[:, 0]
    psi = _edge_matrix(rng, rows(7), 7)
    phi = np.asfortranarray(_edge_matrix(rng, rows(phi_cols), phi_cols))
    dec = spectral.SpectralDecomposition(
        lambdas=lambdas, psi=psi, process=small_process,
        _phi=spectral._Once(lambda: (phi, None)))
    _assert_same_bytes(dec, tmp_path)


def test_export_matches_row_formatter_on_a_decomposition(tmp_path, decomp_cache):
    dec = decomp_cache("random_mask", 7, 0.2)
    assert np.any(np.signbit(dec.phi) & (dec.phi == 0))  # phi holds -0.0
    _assert_same_bytes(dec, tmp_path)


@pytest.mark.parametrize("scheme", ["random_mask", "random_mask_flip",
                                    "block_mask"])
def test_tie_blocks_are_in_lexicographic_order(process_cache, scheme):
    dec = decompose(process_cache(scheme, 4, 0.5))
    np.testing.assert_allclose(dec.psi[:, 0], 1.0, rtol=0, atol=1e-8)
    starts = [0] + [i for i in range(1, dec.rank)
                    if abs(dec.lambdas[i] - dec.lambdas[i - 1]) > 1e-10]
    assert len(starts) < dec.rank  # some eigenvalue is degenerate
    for start, stop in zip(starts, starts[1:] + [dec.rank]):
        first = 1 if start == 0 else start  # the constant stays first
        columns = [tuple(dec.psi[:, j]) for j in range(first, stop)]
        assert columns == sorted(columns), (start, stop)


def oracle_fix_signs(psi, phi):
    """Oracle for ``spectral._fix_signs``: the column loop it replaced.

    Each column's leading entry is the first index of the largest ``|psi|``;
    a column led by a negative entry is negated along with its ``phi``.
    """
    for i in range(psi.shape[1]):
        col = psi[:, i]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            psi[:, i] = -col
            phi[:, i] = -phi[:, i]


def oracle_order_ties(lambdas, psi, phi):
    """Oracle for ``spectral._tie_order``: the block loop it replaced.

    Sorts each tie block's columns (the top block after the constant) by
    the tuple of their ``psi`` entries, in place.
    """
    r = lambdas.size
    start = 0
    while start < r:
        stop = start + 1
        while stop < r and abs(lambdas[stop] - lambdas[start]) <= spectral._TIE_TOL:
            stop += 1
        if stop - start > 1:
            first = 1 if start == 0 else start
            order = list(range(start, first)) + sorted(
                range(first, stop), key=lambda j: tuple(psi[:, j]))
            psi[:, start:stop] = psi[:, order]
            phi[:, start:stop] = phi[:, order]
            lambdas[start:stop] = lambdas[order]
        start = stop


def _tie_ordered(lambdas, psi, phi):
    """``(lambdas, psi, phi)`` in ``decompose``'s tie order: permuted by
    ``spectral._tie_order`` through ``np.take``, or as they are."""
    order = spectral._tie_order(lambdas, psi)
    if order is None:
        return lambdas, psi, phi
    return (lambdas[order], np.take(psi, order, axis=1),
            np.take(phi, order, axis=1))


def _assert_same_bytes_as_oracle(lambdas, psi, phi):
    want = [a.copy() for a in (lambdas, psi, phi)]
    oracle_fix_signs(want[1], want[2])
    oracle_order_ties(*want)
    got = [a.copy() for a in (lambdas, psi, phi)]
    spectral._fix_signs(got[1], got[2])
    got = _tie_ordered(*got)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


_TIE = spectral._TIE_TOL
# entries with ties in |psi| and both signs of zero
_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0])
# gaps between neighbouring eigenvalues: ties, just inside and just
# outside _TIE_TOL, and clear gaps
_GAPS = st.sampled_from([0.0, 0.4 * _TIE, 0.999 * _TIE, 1.001 * _TIE, 1e-3])


@st.composite
def eigen_systems(draw):
    r = draw(st.integers(1, 7))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    psi = np.array(draw(st.lists(_ENTRIES, min_size=n * r, max_size=n * r)),
                   dtype=float).reshape(n, r)
    phi = np.array(draw(st.lists(_ENTRIES, min_size=m * r, max_size=m * r)),
                   dtype=float).reshape(m, r)
    gaps = draw(st.lists(_GAPS, min_size=r - 1, max_size=r - 1))
    lambdas = 1.0 - np.concatenate(([0.0], np.cumsum(gaps)))
    return lambdas, psi, phi


# the first of the tied |psi| entries leads: +1 before -1 keeps the column
@example((np.array([1.0]), np.array([[1.0], [-1.0]]),
          np.array([[0.0], [-0.0]])))
# -0.0 and 0.0 compare equal, so the second row orders the tie block
@example((np.array([1.0, 0.5, 0.5]),
          np.array([[1.0, 0.0, -0.0], [1.0, 2.0, 1.0]]),
          np.array([[1.0, 0.0, -0.0]])))
@settings(max_examples=300, deadline=None)
@given(eigen_systems())
def test_sign_and_tie_conventions_match_the_loop_oracle(system):
    _assert_same_bytes_as_oracle(*system)


def _law_route_oracle(process):
    """``decompose``'s law route as the loop oracles put it together: psi
    the characters, phi = Gamma psi / sqrt(lambda), then signs and ties."""
    config = process.hypercube
    bits = spectral._subset_bits(config.d_x)
    law = spectral._subset_law(config, bits)
    order = np.argsort(-law, kind="stable")
    order = order[law[order] > spectral._RANK_TOL]
    lambdas = law[order]
    psi = 1.0 - 2.0 * (((1 - bits) @ bits[order].T) % 2)
    phi = apply_gamma(process, psi) / np.sqrt(lambdas)
    oracle_fix_signs(psi, phi)
    oracle_order_ties(lambdas, psi, phi)
    return lambdas, psi, phi


def _with_oracle_conventions(monkeypatch, process):
    """``decompose`` with the loop oracles in place of the new routines."""
    def tie_order(lambdas, psi):
        # the permutation the oracle applies, read off a row of indices
        index = np.arange(lambdas.size, dtype=float)[None, :]
        oracle_order_ties(lambdas.copy(), psi.copy(), index)
        return index[0].astype(int)

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_fix_signs", oracle_fix_signs)
        patch.setattr(spectral, "_tie_order", tie_order)
        dec = decompose(process)
    return dec.lambdas, dec.psi, dec.phi


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("d_x", range(1, 9))
def test_decompose_conventions_match_the_loop_oracle(monkeypatch, process_cache,
                                                     scheme, d_x):
    for alpha in (0.3, 0.7):
        process = process_cache(scheme, d_x, alpha)
        svd = dataclasses.replace(process, hypercube=None)
        for dec, want in ((decompose(process), _law_route_oracle(process)),
                          (decompose(svd),
                           _with_oracle_conventions(monkeypatch, svd))):
            for got, w in zip((dec.lambdas, dec.psi, dec.phi), want):
                assert got.tobytes() == w.tobytes()


def test_decompose_deterministic(small_process):
    a = decompose(small_process)
    b = decompose(small_process)
    np.testing.assert_array_equal(a.lambdas, b.lambdas)
    np.testing.assert_array_equal(a.psi, b.psi)
    np.testing.assert_array_equal(a.phi, b.phi)


def _eager_law_route(process):
    """``decompose``'s law route with ``phi`` formed at once: the tie order
    over the Walsh characters and ``Gamma chi / (sign sqrt(lambda))``."""
    lambdas, psi, form_phi = spectral._walsh_engine(process)
    return _tie_ordered(lambdas, psi, form_phi())


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("d_x", range(1, 9))
def test_lazy_phi_is_the_eager_phi(process_cache, scheme, d_x):
    for alpha in (0.2, 0.5, 0.9):
        process = process_cache(scheme, d_x, alpha)
        dec = decompose(process)
        assert dec._phi._result is None  # nothing read phi yet
        want = _eager_law_route(process)
        for got, w in zip((dec.lambdas, dec.psi, dec.phi), want):
            assert got.tobytes() == w.tobytes()  # -0.0 included
        assert dec.phi is dec.phi
        assert not dec.phi.flags.writeable


def _corrupting_engine(scale):
    """``spectral._walsh_engine`` whose ``phi`` comes out scaled by ``scale``."""
    walsh_engine = spectral._walsh_engine

    def engine(process):
        lambdas, psi, form_phi = walsh_engine(process)
        return lambdas, psi, lambda: form_phi() * scale

    return engine


def test_corrupted_phi_fails_its_checks_on_first_read(monkeypatch, process_cache):
    process = process_cache("block_mask_flip", 5, 0.5)
    monkeypatch.setattr(spectral, "_walsh_engine", _corrupting_engine(1 + 1e-6))
    dec = decompose(process)  # the checks of lambda and psi pass
    for _ in range(2):  # and every later read raises the same
        with pytest.raises(ValidationError, match="phi columns are not orthonormal"):
            dec.phi
    with pytest.raises(ValidationError):
        duality_residual(dec)
    # a reader of lambda and psi alone is served
    assert complexity.kappa_exact(dec).kappa_sq_max > 1.0


def test_orthonormal_phi_that_is_not_dual_fails_on_first_read(monkeypatch,
                                                             process_cache):
    # an orthonormal phi that is not dual to psi: reversing the columns of
    # the random_mask d_x 1 pair swaps the constant and the character
    process = process_cache("random_mask", 1, 0.5)
    walsh_engine = spectral._walsh_engine

    def swapped(process):
        lambdas, psi, form_phi = walsh_engine(process)
        return lambdas, psi, lambda: form_phi()[:, ::-1].copy()

    monkeypatch.setattr(spectral, "_walsh_engine", swapped)
    dec = decompose(process)
    with pytest.raises(ValidationError, match="duality residual"):
        dec.phi


def test_failed_once_raises_with_the_same_traceback_on_every_read():
    def compute():
        raise ValueError("no value")

    once = spectral._Once(compute)
    lengths = []
    for _ in range(5):
        with pytest.raises(ValueError, match="no value") as info:
            once()
        lengths.append(len(traceback.extract_tb(info.value.__traceback__)))
    assert lengths == lengths[:1] * 5, lengths
