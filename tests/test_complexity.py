import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augrkhs.complexity import (
    closed_form_kappa,
    diagonal_kernel_values,
    kappa_exact,
    kappa_monte_carlo,
    kappa_percentile,
    mean_chi_squared,
    partial_trace,
    weighted_percentile,
)
from augrkhs.exceptions import ValidationError
from augrkhs.processes import (
    AugmentationProcess,
    HypercubeConfig,
    build_custom,
    build_hypercube,
)
from augrkhs.spectral import apply_gamma_star, decompose


def brute_kappa_sq(process):
    """Enumeration oracle: max over x of sum_a p(a|x)^2 / p_a(a)."""
    dense = process.conditional_dense()
    p_a = process.conditional_dense().T @ process.p_x.mass
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
    trace = float(diag @ small_process.p_x.mass)
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
    with pytest.raises(ValidationError):
        kappa_percentile(small_process, 0.0)
    with pytest.raises(ValidationError):
        kappa_percentile(small_process, 101.0)


def test_percentile_on_symmetric_hypercube(small_process):
    # the diagonal is constant by symmetry, so every percentile is the max
    report = kappa_exact(decompose(small_process))
    for beta in (1.0, 50.0, 99.0, 100.0):
        assert kappa_percentile(small_process, beta) == pytest.approx(
            report.kappa_sq_max, rel=1e-12)


def test_monte_carlo_fully_masked_exactly_one():
    p = build_hypercube(HypercubeConfig(2, 1.0, "random_mask"))
    est = kappa_monte_carlo(p, m=5, r=10, beta=99.0, seed=3)
    assert est.estimate == 1.0
    assert est.standard_error == 0.0


def test_monte_carlo_determinism(small_process):
    a = kappa_monte_carlo(small_process, m=8, r=100, beta=99.0, seed=11)
    b = kappa_monte_carlo(small_process, m=8, r=100, beta=99.0, seed=11)
    assert a.estimate == b.estimate
    assert a.standard_error == b.standard_error


def test_monte_carlo_converges_to_exact():
    p = build_hypercube(HypercubeConfig(3, 0.4, "random_mask"))
    exact = kappa_percentile(p, 99.0)
    est = kappa_monte_carlo(p, m=p.n_x, r=10**5, beta=99.0, seed=0)
    assert abs(est.estimate - exact) / exact <= 0.05


def dense_kappa_monte_carlo(process, m, r, beta, seed, n_bootstrap=200):
    """The loop ``kappa_monte_carlo`` ran over the dense table, as an oracle
    for the draws, the estimate and the standard error."""
    rng = np.random.default_rng(seed)
    dense = process.conditional_dense()
    xs = rng.choice(process.n_x, size=m, p=process.p_x.mass)
    averages = np.empty(m)
    for k, x in enumerate(xs):
        row = dense[x]
        draws = rng.choice(process.n_a, size=r, p=row)
        averages[k] = float(np.mean(row[draws] / process.p_a.mass[draws]))
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
    # random_mask and block_mask are stored sparse, the flip schemes dense
    p = build_hypercube(HypercubeConfig(5, 0.4, scheme))
    want = [dense_kappa_monte_carlo(p, 40, 25, 90.0, seed) for seed in (0, 7)]

    def refuse(self):
        raise AssertionError("the dense conditional table was formed")

    monkeypatch.setattr(AugmentationProcess, "conditional_dense", refuse)
    for (estimate, error), seed in zip(want, (0, 7)):
        got = kappa_monte_carlo(p, m=40, r=25, beta=90.0, seed=seed)
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
    with pytest.raises(ValidationError):
        closed_form_kappa(HypercubeConfig(4, 0.5, "random_mask_flip"))


def test_partial_trace(small_decomposition):
    dec = small_decomposition
    assert partial_trace(dec, 1) == pytest.approx(1.0, abs=1e-10)
    assert partial_trace(dec, 4) == pytest.approx(2.5, abs=1e-10)
    full = partial_trace(dec, dec.process.n_x + 10)
    diag = diagonal_kernel_values(dec.process)
    assert full == pytest.approx(float(diag @ dec.process.p_x.mass),
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
        norm = math.sqrt(float(np.sum(g * g * p.p_a.mass)))
        values = apply_gamma_star(p, g)
        assert np.max(np.abs(values)) <= kappa * norm + 1e-9


def test_custom_process_percentile_weighting():
    # three points with distinct diagonals and non-uniform mass
    process, _ = build_custom(
        3, 3, [0.5, 0.4, 0.1],
        [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)])
    diag = diagonal_kernel_values(process)
    np.testing.assert_allclose(diag, [2.0, 2.5, 10.0])
    assert kappa_percentile(process, 90.0) == pytest.approx(2.5)
    assert kappa_percentile(process, 95.0) == pytest.approx(10.0)


def dense_mean_chi_squared(process):
    """Oracle on the densified table: sum_x p_x sum_a p_a (p(a|x)/p_a - 1)^2."""
    ratio = process.conditional_dense() / process.p_a.mass - 1.0
    return float((ratio * ratio * process.p_a.mass).sum(axis=1)
                 @ process.p_x.mass)


@pytest.mark.parametrize("scheme", ["random_mask", "block_mask",
                                    "block_mask_flip", "random_mask_flip"])
@pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0])
def test_mean_chi_squared_matches_dense_on_schemes(scheme, alpha):
    # random_mask and block_mask at alpha 0.2 are stored sparse, the rest dense
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
