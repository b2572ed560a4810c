import math

import numpy as np
import pytest

from augrkhs.complexity import kappa_exact
from augrkhs.encoders import (
    build_average_encoder,
    optimal_encoder,
    trace_gap,
)
from augrkhs.exceptions import InfeasibleTargetError, ValidationError
from augrkhs.processes import HypercubeConfig, build_hypercube
from augrkhs.regression import (
    BoundContext,
    evaluate_bounds,
    fit_least_squares,
    fit_least_squares_population,
    generate_labels,
    project_fpsi,
    sample_target,
    target_from_coefficients,
    worst_case_target,
)
from augrkhs.spectral import decompose


def soft_invariance_sides(u, lambdas, epsilon):
    lhs = float(np.sum((1 - lambdas) / lambdas * u * u))
    rhs = epsilon * float(np.sum(u * u / lambdas))
    return lhs, rhs


def test_target_hand_membership_example():
    p = build_hypercube(HypercubeConfig(1, 0.5, "random_mask"))
    dec = decompose(p)  # spectrum (1, 1/2)
    scale = 1.0 / math.sqrt(1.25)
    u = np.array([1.0, 0.5]) * scale
    target = target_from_coefficients(dec, u, B=1.0, epsilon=0.25)
    lhs, rhs = soft_invariance_sides(target.u, dec.lambdas, 0.25)
    assert lhs == pytest.approx(0.25 * scale**2, abs=1e-12)
    assert rhs == pytest.approx(0.375 * scale**2, abs=1e-12)
    assert lhs <= rhs


def test_target_constant_always_member(small_decomposition):
    u = np.zeros(small_decomposition.rank)
    u[0] = 2.0
    for eps in (0.0, 0.3, 0.9):
        target = target_from_coefficients(small_decomposition, u, 2.0, eps)
        np.testing.assert_allclose(target.values, 2.0, atol=1e-10)


def test_target_membership_violation_rejected(small_decomposition):
    u = np.zeros(small_decomposition.rank)
    u[-1] = 1.0  # all mass on the smallest eigenvalue
    with pytest.raises(ValidationError):
        target_from_coefficients(small_decomposition, u, 1.0, 0.01)


def test_sample_target_determinism_and_invariants(small_decomposition):
    a = sample_target(small_decomposition, 1.5, 0.2, seed=4)
    b = sample_target(small_decomposition, 1.5, 0.2, seed=4)
    np.testing.assert_array_equal(a.u, b.u)
    assert a.norm_sq == pytest.approx(1.5**2, abs=1e-10)
    lhs, rhs = soft_invariance_sides(a.u, small_decomposition.lambdas, 0.2)
    assert lhs <= rhs + 1e-12
    assert (1 - 0.2) * a.h_norm_sq <= a.norm_sq + 1e-10
    assert a.norm_sq <= a.h_norm_sq + 1e-10


def test_sample_target_infeasible_nonconstant():
    masked = build_hypercube(HypercubeConfig(2, 1.0, "random_mask"))
    dec = decompose(masked)  # rank 1
    with pytest.raises(InfeasibleTargetError):
        sample_target(dec, 1.0, 0.0, seed=0, nonconstant=True)
    # without the flag the constant target is always available
    target = sample_target(dec, 1.0, 0.0, seed=0)
    assert target.norm_sq == pytest.approx(1.0, abs=1e-12)


def test_target_uniform_boundedness(small_decomposition):
    kappa = math.sqrt(kappa_exact(small_decomposition).kappa_sq_max)
    for seed in range(25):
        target = sample_target(small_decomposition, 1.0, 0.3, seed=seed)
        cap = kappa * 1.0 / math.sqrt(1 - 0.3)
        assert np.max(np.abs(target.values)) <= cap + 1e-9


def test_generate_labels_noiseless_and_deterministic(small_process,
                                                     small_decomposition):
    target = sample_target(small_decomposition, 1.0, 0.25, seed=1)
    clean = generate_labels(target, 32, 0.0, seed=9)
    for s in clean:
        assert s.y == pytest.approx(target.values[s.x_index], abs=0.0)
    again = generate_labels(target, 32, 0.0, seed=9)
    assert [(s.x_index, s.y) for s in clean] == \
        [(s.x_index, s.y) for s in again]


def test_generate_labels_clt_sanity(small_process, small_decomposition):
    target = sample_target(small_decomposition, 1.0, 0.25, seed=2)
    sigma = 0.3
    n = 10**4
    samples = generate_labels(target, n, sigma, seed=3)
    mean_y = float(np.mean([s.y for s in samples]))
    expected = float(target.values @ small_process.p_x.mass)
    total_var = float(
        (target.values - expected) ** 2 @ small_process.p_x.mass) + sigma**2
    assert abs(mean_y - expected) <= 4.0 * math.sqrt(total_var / n)


def test_fit_interpolates_in_span(small_process, small_decomposition):
    dec = small_decomposition
    enc = optimal_encoder(dec, 4)
    w_true = np.array([0.3, -0.2, 0.5, 0.1])
    values = enc.psi_hat.T @ w_true
    target = target_from_coefficients(
        dec, (dec.psi * small_process.p_x.mass[:, None]).T @ values,
        B=2.0, epsilon=0.5)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, small_process.n_x, size=32)
    samples = [type("S", (), {"x_index": int(i),
                              "y": float(values[i])})() for i in idx]
    fit = fit_least_squares(enc, samples, B=5.0, epsilon=0.5, target=target)
    assert fit.prediction_error <= 1e-16
    assert fit.lagrange_mu == 0.0
    assert fit.train_mse <= 1e-20


def test_fit_zero_budget(small_process, small_decomposition):
    target = sample_target(small_decomposition, 1.0, 0.25, seed=5)
    enc = optimal_encoder(small_decomposition, 3)
    samples = generate_labels(target, 16, 0.1, seed=6)
    fit = fit_least_squares(enc, samples, B=0.0, epsilon=0.25, target=target)
    np.testing.assert_array_equal(fit.w, 0.0)
    assert fit.prediction_error == pytest.approx(target.norm_sq, abs=1e-10)


def test_fit_constraint_activation_and_slackness(small_process,
                                                 small_decomposition):
    target = sample_target(small_decomposition, 1.0, 0.25, seed=7)
    enc = optimal_encoder(small_decomposition, 3)
    samples = generate_labels(target, 24, 0.5, seed=8)
    fit = fit_least_squares(enc, samples, B=0.05, epsilon=0.25, target=target)
    radius_sq = 0.05**2 / 0.75
    assert fit.lagrange_mu > 0
    assert fit.h_norm**2 <= radius_sq * (1 + 1e-9)
    assert abs(fit.lagrange_mu * (fit.h_norm**2 - radius_sq)) <= 1e-8
    assert fit.h_norm <= 0.05 / math.sqrt(0.75) + 1e-8


def test_fit_error_monotone_in_budget(small_process, small_decomposition):
    target = sample_target(small_decomposition, 1.0, 0.25, seed=9)
    enc = optimal_encoder(small_decomposition, 4)
    samples = generate_labels(target, 48, 0.2, seed=10)
    errors = []
    for B in (0.01, 0.05, 0.1, 0.3, 0.6, 1.0, 2.0):
        fit = fit_least_squares(enc, samples, B=B, epsilon=0.25,
                                target=target)
        errors.append(fit.prediction_error)
    assert np.all(np.diff(errors) <= 1e-9), errors


def test_population_fit_is_projection_for_eigen_span(small_process,
                                                     small_decomposition):
    dec = small_decomposition
    target = sample_target(dec, 1.0, 0.25, seed=11)
    rng = np.random.default_rng(12)
    mix = rng.normal(size=(3, 3)) + np.eye(3)
    enc = build_average_encoder(dec, mix @ dec.phi[:, :3].T)
    fit = fit_least_squares_population(enc, target.values, B=5.0,
                                       epsilon=0.25, target=target)
    f_psi, approx_err = project_fpsi(target, enc)
    np.testing.assert_allclose(fit.f_hat_values, f_psi, atol=1e-8)
    assert fit.prediction_error == pytest.approx(approx_err, abs=1e-8)


def test_population_pythagoras_eigen_span(small_process,
                                          small_decomposition):
    dec = small_decomposition
    target = sample_target(dec, 1.0, 0.2, seed=13)
    enc = optimal_encoder(dec, 3)
    labels = generate_labels(target, 64, 0.3, seed=14)
    fit = fit_least_squares(enc, labels, B=2.0, epsilon=0.2, target=target)
    f_psi, approx_err = project_fpsi(target, enc)
    est = fit.f_hat_values - f_psi
    est_err = float(np.sum(est * est * small_process.p_x.mass))
    assert fit.prediction_error == pytest.approx(est_err + approx_err,
                                                 abs=1e-8)


def test_project_fpsi_top_d_tail_identity(small_decomposition):
    dec = small_decomposition
    target = sample_target(dec, 1.0, 0.3, seed=15)
    for d in (1, 2, 4):
        enc = optimal_encoder(dec, d)
        _, err = project_fpsi(target, enc)
        assert err == pytest.approx(float(np.sum(target.u[d:] ** 2)),
                                    abs=1e-10)


def test_project_fpsi_in_span_and_orthogonal(small_process,
                                             small_decomposition):
    dec = small_decomposition
    u = np.zeros(dec.rank)
    u[1] = 1.0  # aligned with the second eigenfunction
    target = target_from_coefficients(dec, u, B=1.0, epsilon=0.6)
    const = optimal_encoder(dec, 1)
    _, err = project_fpsi(target, const)
    assert err == pytest.approx(1.0, abs=1e-10)
    wide = optimal_encoder(dec, 4)
    _, err2 = project_fpsi(target, wide)
    assert err2 <= 1e-12


def test_worst_case_target_equality(small_decomposition):
    dec = small_decomposition
    for d, eps in [(1, 0.1), (2, 0.2), (4, 0.25)]:
        lam = dec.eigenvalue(d + 1)
        if (lam / (1 - lam)) * (eps / (1 - eps)) > 0.5:
            continue
        target = worst_case_target(dec, d, B=1.3, epsilon=eps)
        enc = optimal_encoder(dec, d)
        _, err = project_fpsi(target, enc)
        expected = (lam / (1 - lam)) * (eps / (1 - eps)) * 1.3**2
        assert err == pytest.approx(expected, abs=1e-8)


def test_worst_case_target_degenerate_cases(small_decomposition):
    zero_eps = worst_case_target(small_decomposition, 2, B=1.0, epsilon=0.0)
    assert float(np.sum(zero_eps.u[1:] ** 2)) == 0.0
    masked = decompose(build_hypercube(HypercubeConfig(2, 1.0,
                                                       "random_mask")))
    tail_free = worst_case_target(masked, 1, B=1.0, epsilon=0.3)
    assert tail_free.u[0] == pytest.approx(1.0, abs=1e-12)


def test_worst_case_lower_bound_over_top_d_spans(small_process,
                                                 small_decomposition):
    # every encoder spanning d of the top directions leaves at least the
    # exhibited tail mass; the optimal span attains it exactly
    dec = small_decomposition
    d, eps, B = 2, 0.2, 1.0
    lam = dec.eigenvalue(d + 1)
    rhs = (lam / (1 - lam)) * (eps / (1 - eps)) * B * B
    target = worst_case_target(dec, d, B=B, epsilon=eps)
    rng = np.random.default_rng(30)
    for _ in range(10):
        while True:
            mix = rng.normal(size=(d, d))
            if abs(np.linalg.det(mix)) > 0.1:
                break
        enc = build_average_encoder(dec, mix @ dec.phi[:, :d].T)
        _, err = project_fpsi(target, enc)
        assert err >= rhs - 1e-8
        assert err == pytest.approx(rhs, abs=1e-8)


def test_worst_case_feasibility_error():
    p = build_hypercube(HypercubeConfig(1, 0.05, "random_mask"))
    dec = decompose(p)  # second eigenvalue 0.95
    with pytest.raises(ValidationError, match="feasibility"):
        worst_case_target(dec, 1, B=1.0, epsilon=0.2)


def test_approximation_bound_soundness_sweep(small_process, small_decomposition):
    # encoders anchored on the constant keep the trace gap below one
    dec = small_decomposition
    rng = np.random.default_rng(100)
    checked = 0
    for seed in range(80):
        d = int(rng.integers(1, 4))
        table = 1.0 + 0.4 * rng.normal(size=(d, small_process.n_a))
        enc = build_average_encoder(dec, table)
        tau_sq = trace_gap(enc)
        if tau_sq >= 1.0:
            continue
        target = sample_target(dec, 1.0, 0.2, seed=seed)
        _, err = project_fpsi(target, enc)
        tau = math.sqrt(tau_sq)
        bound = tau_sq * (tau + 0.2) / ((1 - tau_sq) * 0.8)
        assert err <= bound + 1e-9
        checked += 1
    assert checked >= 50


def test_evaluate_bounds_formulas():
    ctx = BoundContext(tau_sq=0.09, epsilon=0.2, B=1.5, kappa=2.0,
                       s_lambda_dplus1=2.5, n=400, sigma=0.3, c0=1.7,
                       lambda_dplus1=0.25, lambda_d=0.5, lambda_bar_d=0.45,
                       gamma_g=1.2, N=256, d=3, delta=0.05)
    report = evaluate_bounds(ctx)
    tau = math.sqrt(0.09)
    lemma32 = 0.09 * (tau + 0.2) * 1.5**2 / ((1 - 0.09) * 0.8)
    assert report.lemma32_rhs == pytest.approx(lemma32, rel=1e-12)
    thm31 = 9 * lemma32 + 1.7 * 2.0 * (1.5**2 + 0.3 * 1.5) / 0.8 \
        * math.sqrt(2.5 / 400)
    assert report.thm31_rhs == pytest.approx(thm31, rel=1e-12)
    prop41 = 0.25 / 0.75 * 0.2 / 0.8 * 1.5**2
    assert report.prop41_rhs == pytest.approx(prop41, rel=1e-12)
    thm41 = 0.25 + (2 + math.sqrt(2 * math.log(2 / 0.05))) \
        * (1 / 0.5 + math.sqrt(1.2) / 0.45 + 2) * 4.0 * 3 / 16.0
    assert report.thm41_rhs == pytest.approx(thm41, rel=1e-12)
    assert report.tau_applicable


def test_evaluate_bounds_collapse_and_inapplicable():
    zero = BoundContext(tau_sq=0.0, epsilon=0.0, B=2.0, kappa=1.5,
                        s_lambda_dplus1=2.0, n=100, sigma=0.0)
    report = evaluate_bounds(zero)
    assert report.lemma32_rhs == 0.0
    assert report.thm31_rhs == pytest.approx(
        1.5 * 4.0 * math.sqrt(2.0 / 100), rel=1e-12)
    hot = BoundContext(tau_sq=1.21, epsilon=0.1, B=1.0, kappa=1.5,
                       s_lambda_dplus1=2.0, n=100, sigma=0.0)
    blocked = evaluate_bounds(hot)
    assert not blocked.tau_applicable
    assert blocked.thm31_rhs is None
    assert blocked.lemma32_rhs is None
