import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from augrkhs.complexity import (
    PERCENTILE,
    closed_form_kappa,
    diagonal_kernel_values,
    kappa_exact,
    kappa_monte_carlo,
    mean_chi_squared,
    partial_trace,
    weighted_percentile,
)
from augrkhs.exceptions import ValidationError
from augrkhs.processes import (
    BLOCK_ENTRIES,
    SCHEMES,
    AugmentationProcess,
    HypercubeConfig,
    build_custom,
    build_hypercube,
)
from augrkhs.spectral import apply_gamma_star, decompose
from conftest import stored_by_density


def brute_kappa_sq(process):
    """Enumeration oracle: max over x of sum_a p(a|x)^2 / p_a(a)."""
    dense = process.conditional_dense()
    p_a = process.conditional_dense().T @ process.p_x
    best = 0.0
    for i in range(process.n_x):
        total = 0.0
        for j in range(process.n_a):
            if dense[i, j] > 0:
                total += dense[i, j] ** 2 / p_a[j]
        best = max(best, total)
    return best


def test_fully_masked_kappa_is_one():
    p = build_hypercube(HypercubeConfig(2, 1.0, "random_mask"))
    report = kappa_exact(decompose(p))
    assert report.kappa_sq_max == pytest.approx(1.0, abs=1e-12)
    assert report.s_lambda_total == pytest.approx(1.0, abs=1e-12)


def test_random_mask_formula_d8():
    p = build_hypercube(HypercubeConfig(8, 0.5, "random_mask"))
    report = kappa_exact(decompose(p))
    assert report.kappa_sq_max == pytest.approx(1.5**8, rel=1e-12)
    assert report.kappa_sq_max == pytest.approx(25.62890625, rel=1e-12)


def test_block_mask_saturates_bound_d8():
    p = build_hypercube(HypercubeConfig(8, 0.5, "block_mask"))
    report = kappa_exact(decompose(p))
    assert report.kappa_sq_max == pytest.approx(16.0, rel=1e-12)
    bound = closed_form_kappa(HypercubeConfig(8, 0.5, "block_mask"))
    assert bound.value == pytest.approx(16.0, rel=1e-12)


def test_kappa_exact_two_routes_agree(small_process):
    report = kappa_exact(decompose(small_process))
    oracle = brute_kappa_sq(small_process)
    assert report.kappa_sq_max == pytest.approx(oracle, rel=1e-12)
    assert report.chi_sq_identity_residual <= 1e-10
    assert report.kappa_sq_max >= report.s_lambda_total - 1e-9
    assert report.kappa_sq_max >= 1.0 - 1e-10
    assert report.per_point.min() >= 0.0


def test_trace_identity_direct(small_process, small_decomposition):
    diag = diagonal_kernel_values(small_process)
    trace = float(diag @ small_process.p_x)
    assert trace == pytest.approx(float(small_decomposition.lambdas.sum()),
                                  abs=1e-10)


def test_percentile_definition_hand_case():
    values = np.array([1.0, 2.0, 5.0])
    weights = np.array([0.5, 0.4, 0.1])
    assert weighted_percentile(values, weights, 90.0) == 2.0
    assert weighted_percentile(values, weights, 91.0) == 5.0
    assert weighted_percentile(values, weights, 50.0) == 1.0
    assert weighted_percentile(values, weights, 100.0) == 5.0


def test_percentile_beta_validation(small_process):
    diag = diagonal_kernel_values(small_process)
    with pytest.raises(ValidationError):
        weighted_percentile(diag, small_process.p_x, 0.0)
    with pytest.raises(ValidationError):
        weighted_percentile(diag, small_process.p_x, 101.0)


def test_percentile_on_symmetric_hypercube(small_process):
    # the diagonal is constant by symmetry, so every percentile is the max
    report = kappa_exact(decompose(small_process))
    diag = diagonal_kernel_values(small_process)
    for beta in (1.0, 50.0, 99.0, 100.0):
        assert weighted_percentile(diag, small_process.p_x, beta) \
            == pytest.approx(report.kappa_sq_max, rel=1e-12)
    assert report.kappa_sq_percentile == pytest.approx(report.kappa_sq_max,
                                                       rel=1e-12)


def test_monte_carlo_fully_masked_exactly_one():
    p = build_hypercube(HypercubeConfig(2, 1.0, "random_mask"))
    est = kappa_monte_carlo(p, m=5, r=10, seed=3)
    assert est.estimate == 1.0
    assert est.standard_error == 0.0


def test_monte_carlo_determinism(small_process):
    a = kappa_monte_carlo(small_process, m=8, r=100, seed=11)
    b = kappa_monte_carlo(small_process, m=8, r=100, seed=11)
    assert a.estimate == b.estimate
    assert a.standard_error == b.standard_error


def test_monte_carlo_converges_to_exact():
    p = build_hypercube(HypercubeConfig(3, 0.4, "random_mask"))
    exact = kappa_exact(decompose(p)).kappa_sq_percentile
    est = kappa_monte_carlo(p, m=p.n_x, r=10**5, seed=0)
    assert abs(est.estimate - exact) / exact <= 0.05


def dense_kappa_monte_carlo(process, m, r, beta, seed, n_bootstrap=200):
    """The loop ``kappa_monte_carlo`` ran over the dense table, as an oracle
    for the draws, the estimate and the standard error."""
    rng = np.random.default_rng(seed)
    dense = process.conditional_dense()
    xs = rng.choice(process.n_x, size=m, p=process.p_x)
    averages = np.empty(m)
    for k, x in enumerate(xs):
        row = dense[x]
        draws = rng.choice(process.n_a, size=r, p=row)
        averages[k] = float(np.mean(row[draws] / process.p_a[draws]))
    uniform = np.full(m, 1.0 / m)
    boot = np.empty(n_bootstrap)
    for b in range(n_bootstrap):
        resample = averages[rng.integers(0, m, size=m)]
        boot[b] = weighted_percentile(resample, uniform, beta)
    return (weighted_percentile(averages, uniform, beta),
            float(boot.std(ddof=1)))


@pytest.mark.parametrize("scheme", ["random_mask", "block_mask",
                                    "block_mask_flip", "random_mask_flip"])
def test_monte_carlo_reads_only_the_sampled_rows(monkeypatch, scheme):
    # by the density rule alone, random_mask and block_mask are stored
    # sparse, the flip schemes dense
    with stored_by_density():
        p = build_hypercube(HypercubeConfig(5, 0.4, scheme))
    want = [dense_kappa_monte_carlo(p, 40, 25, PERCENTILE, seed)
            for seed in (0, 7)]

    rows = AugmentationProcess.conditional_dense

    def refuse(self, points=None):
        if points is None:
            raise AssertionError("the dense conditional table was formed")
        return rows(self, points)

    monkeypatch.setattr(AugmentationProcess, "conditional_dense", refuse)
    for (estimate, error), seed in zip(want, (0, 7)):
        got = kappa_monte_carlo(p, m=40, r=25, seed=seed)
        assert (got.estimate, got.standard_error) == (estimate, error)


def test_closed_forms():
    exact = closed_form_kappa(HypercubeConfig(8, 0.5, "random_mask"))
    assert exact.kind == "exact"
    assert exact.value == pytest.approx(25.62890625, rel=1e-15)
    unit = closed_form_kappa(HypercubeConfig(7, 1.0, "block_mask"))
    assert unit.kind == "upper_bound"
    assert unit.value == pytest.approx(1.0, rel=1e-15)
    flip = closed_form_kappa(HypercubeConfig(10, 0.5, "block_mask_flip"))
    assert flip.kind == "upper_bound"
    assert flip.value == pytest.approx(1.25**7.5, rel=1e-15)
    assert flip.value == pytest.approx(5.3312014997, rel=1e-9)
    assert closed_form_kappa(HypercubeConfig(4, 0.5, "random_mask_flip")) is None


def test_partial_trace(small_decomposition):
    dec = small_decomposition
    assert partial_trace(dec, 1) == pytest.approx(1.0, abs=1e-10)
    assert partial_trace(dec, 4) == pytest.approx(2.5, abs=1e-10)
    full = partial_trace(dec, dec.process.n_x + 10)
    diag = diagonal_kernel_values(dec.process)
    assert full == pytest.approx(float(diag @ dec.process.p_x),
                                 abs=1e-10)
    with pytest.raises(ValidationError):
        partial_trace(dec, 0)


def test_block_mask_brute_force_power_of_two():
    for d_x, alpha in [(4, 0.3), (5, 0.5), (6, 0.7), (7, 0.2)]:
        p = build_hypercube(HypercubeConfig(d_x, alpha, "block_mask"))
        r = math.ceil(alpha * d_x - 1e-12)
        assert brute_kappa_sq(p) == pytest.approx(2.0 ** (d_x - r), rel=1e-12)


def test_block_flip_brute_below_bound():
    for d_x in (3, 5, 8):
        for alpha in (0.1, 0.5, 0.9):
            p = build_hypercube(HypercubeConfig(d_x, alpha, "block_mask_flip"))
            bound = closed_form_kappa(
                HypercubeConfig(d_x, alpha, "block_mask_flip")).value
            assert brute_kappa_sq(p) <= bound + 1e-9


def test_kappa_monotone_in_alpha():
    alphas = [0.05 + 0.05 * i for i in range(16)]
    for scheme in ("random_mask", "block_mask", "block_mask_flip",
                   "random_mask_flip"):
        values = [kappa_exact(decompose(build_hypercube(
            HypercubeConfig(4, a, scheme)))).kappa_sq_max for a in alphas]
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-9), (scheme, values)


def test_uniform_bound_on_adjoint_outputs(small_process):
    # |Gamma* g| is pointwise at most kappa times the weighted norm of g
    p = small_process
    kappa = math.sqrt(kappa_exact(decompose(p)).kappa_sq_max)
    rng = np.random.default_rng(5)
    for _ in range(100):
        g = rng.normal(size=p.n_a)
        norm = math.sqrt(float(np.sum(g * g * p.p_a)))
        values = apply_gamma_star(p, g)
        assert np.max(np.abs(values)) <= kappa * norm + 1e-9


def test_custom_process_percentile_weighting():
    # three points with distinct diagonals and non-uniform mass
    process, _ = build_custom(
        3, 3, [0.5, 0.4, 0.1],
        [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)])
    diag = diagonal_kernel_values(process)
    np.testing.assert_allclose(diag, [2.0, 2.5, 10.0])
    assert weighted_percentile(diag, process.p_x, 90.0) == pytest.approx(2.5)
    assert weighted_percentile(diag, process.p_x, 95.0) == pytest.approx(10.0)
    assert kappa_exact(decompose(process)).kappa_sq_percentile == 10.0


def dense_mean_chi_squared(process):
    """Oracle on the densified table: sum_x p_x sum_a p_a (p(a|x)/p_a - 1)^2."""
    ratio = process.conditional_dense() / process.p_a - 1.0
    return float((ratio * ratio * process.p_a).sum(axis=1)
                 @ process.p_x)


@pytest.mark.parametrize("scheme", ["random_mask", "block_mask",
                                    "block_mask_flip", "random_mask_flip"])
@pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0])
def test_mean_chi_squared_matches_dense_on_schemes(scheme, alpha):
    # by the density rule alone, random_mask and block_mask at alpha 0.2 are
    # stored sparse, the rest dense
    with stored_by_density():
        process = build_hypercube(HypercubeConfig(4, alpha, scheme))
    expected = dense_mean_chi_squared(process)
    assert mean_chi_squared(process) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 8), st.floats(0.0, 0.9),
       st.integers(0, 2**32 - 1))
def test_mean_chi_squared_matches_dense_on_custom(n_x, n_a, drop, seed):
    rng = np.random.default_rng(seed)
    table = rng.uniform(size=(n_x, n_a)) * (rng.uniform(size=(n_x, n_a)) > drop)
    table[np.arange(n_x), rng.integers(0, n_a, size=n_x)] += 0.5
    table /= table.sum(axis=1, keepdims=True)
    p_x = rng.uniform(0.1, 1.0, size=n_x)
    p_x /= p_x.sum()
    triples = [(i, j, table[i, j]) for i in range(n_x) for j in range(n_a)
               if table[i, j] > 0]
    process, _ = build_custom(n_x, n_a, p_x, triples)
    expected = dense_mean_chi_squared(process)
    # both routes round at about 1e-16 on the scale of s_lambda = 1 + chi^2,
    # the value the identity compares, so a chi^2 near 0 is held to that
    assert abs(mean_chi_squared(process) - expected) <= 1e-12 * (1 + expected)


def diagonal_by_whole_table(process):
    """The whole-table diagonal that the row blocks and the stored-entry
    sum replaced, kept as their oracle."""
    C, inv_pa = process.conditional, 1.0 / process.p_a
    if process.is_sparse:
        C = sp.csr_array((C.data, C.indices, C.indptr), shape=C.shape)
        return np.asarray((C.multiply(C)).multiply(inv_pa).sum(axis=1)).ravel()
    return ((C * C) * inv_pa).sum(axis=1)


def mean_chi_squared_by_whole_table(process):
    """The whole-table mean chi-squared of a dense table that the row blocks
    replaced, kept as their oracle."""
    table, p_a = process.conditional, process.p_a
    return float(((table - p_a) ** 2 / p_a).sum(axis=1) @ process.p_x)


def _multi_block_custom_process(seed):
    """A custom process of 60-130 x 1200-2400 points, several blocks of rows
    of ``BLOCK_ENTRIES``: dense-stored for an even ``seed``, with unused
    augmentations that pruning drops (which leaves the table column-major),
    sparse-stored (one to five entries per row) for an odd one, built by
    the density rule alone because some are at most ``DENSE_ENTRIES``."""
    rng = np.random.default_rng(seed)
    n_x, n_a = int(rng.integers(60, 131)), int(rng.integers(1200, 2401))
    used = rng.choice(n_a, size=n_a - 40, replace=False)
    triples = []
    for i in range(n_x):
        support = (used if seed % 2 == 0 else
                   rng.choice(n_a, size=int(rng.integers(1, 6)), replace=False))
        triples += zip([i] * support.size, support.tolist(),
                       rng.dirichlet(np.ones(support.size)).tolist())
    with stored_by_density():
        return build_custom(n_x, n_a, rng.dirichlet(np.ones(n_x)), triples)[0]


def _assert_blocks_equal_the_oracle(process, report):
    assert np.array_equal(report.per_point, diagonal_by_whole_table(process))
    if not process.is_sparse:  # the sparse mean chi^2 has no row blocks
        assert (mean_chi_squared(process)
                == mean_chi_squared_by_whole_table(process))


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("d_x", [3, 5, 7, 8])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_kappa_equals_the_whole_table_oracle_on_schemes(scheme, d_x, alpha):
    # dense random_mask_flip at d_x 8 has 256 rows at 9 a block, so its
    # last block holds 4; random_mask at alpha 0.2 is stored sparse
    process = build_hypercube(HypercubeConfig(d_x, alpha, scheme))
    _assert_blocks_equal_the_oracle(process, kappa_exact(decompose(process)))


@pytest.mark.parametrize("seed", range(10))
def test_kappa_equals_the_whole_table_oracle_on_custom(seed):
    process = _multi_block_custom_process(seed)
    assert process.is_sparse == bool(seed % 2)
    _assert_blocks_equal_the_oracle(process, kappa_exact(decompose(process)))


def test_kappa_exact_holds_one_block_of_rows():
    # besides the table the build admitted: two arrays of one block of rows
    # (a product and its scaled copy), the vectors over A and X, and the
    # buffer numpy's broadcasting ufuncs fill; one call first, so that
    # caches numpy and scipy fill once per process are not counted
    process = build_hypercube(HypercubeConfig(7, 0.5, "random_mask_flip"))
    assert not process.is_sparse
    dec = decompose(process)
    kappa_exact(dec)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kappa_exact(dec)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n_x, n_a = process.n_x, process.n_a
    block = max(1, BLOCK_ENTRIES // n_a) * n_a
    admitted = 2 * block + n_a + np.getbufsize() + 8 * n_x
    assert peak <= 8 * admitted, (peak, 8 * admitted)
