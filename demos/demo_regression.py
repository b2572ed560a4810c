"""Soft-invariant targets and the norm-constrained linear probe.

A target drawn from the soft-invariance class is learned by constrained
least squares on top of the optimal encoder.  The prediction error splits
into the approximation error of the encoder span plus an estimation error
that decays like 1/n in the number of labels; the bound right-hand sides
are evaluated alongside.
"""

import math

import numpy as np

from augrkhs import (
    HypercubeConfig,
    build_hypercube,
    decompose,
    fit_least_squares,
    generate_labels,
    kappa_exact,
    lemma32_rhs,
    optimal_encoder,
    partial_trace,
    project_fpsi,
    prop41_rhs,
    sample_target,
    thm31_rhs,
    trace_gap,
    worst_case_target,
)

np.set_printoptions(precision=4, suppress=True)

process = build_hypercube(HypercubeConfig(3, 0.5, "random_mask"))
dec = decompose(process)
d, B, eps, sigma = 3, 1.0, 0.2, 0.1
encoder = optimal_encoder(dec, d)
target = sample_target(dec, B, eps, seed=0)
print("target coefficients:", target.u)
print(f"norm {math.sqrt(target.norm_sq):.4f} <= B = {B}, "
      f"induced norm {math.sqrt(target.h_norm_sq):.4f} <= "
      f"{B / math.sqrt(1 - eps):.4f}")

_, approx_err = project_fpsi(target, encoder)
print(f"\napproximation error of the top-{d} span: {approx_err:.6f}")

print(f"\n{'n':>6}{'prediction err':>16}{'estimation err':>16}"
      f"{'constraint':>12}")
f_psi, _ = project_fpsi(target, encoder)
for n in (32, 128, 512, 2048):
    fit = fit_least_squares(
        encoder, generate_labels(target, n, sigma, seed=n),
        B, eps, target=target)
    est = fit.f_hat_values - f_psi
    est_err = float(np.sum(est * est * process.p_x))
    state = "active" if fit.lagrange_mu > 0 else "slack"
    print(f"{n:>6}{fit.prediction_error:>16.6f}{est_err:>16.6f}{state:>12}")

print("\n=== Bound right-hand sides at n = 512 ===")
tau_sq = trace_gap(encoder)
approx_bound = lemma32_rhs(tau_sq=tau_sq, epsilon=eps, B=B)
full_bound = thm31_rhs(tau_sq=tau_sq, epsilon=eps, B=B,
                       kappa=math.sqrt(kappa_exact(dec).kappa_sq_max),
                       s_lambda_dplus1=partial_trace(dec, d + 1), n=512,
                       sigma=sigma)
lower_bound = prop41_rhs(lambda_dplus1=dec.eigenvalue(d + 1), epsilon=eps,
                         B=B)
print(f"trace gap tau^2 = {tau_sq:.4f} (equals the next eigenvalue "
      f"{dec.eigenvalue(d + 1):.4f} at the optimal encoder)")
print(f"approximation bound: {approx_bound:.6f} >= {approx_err:.6f}")
print(f"full generalization bound: {full_bound:.4f}")
print(f"approximation lower bound: {lower_bound:.6f}")

print("\n=== The worst-case target attains the lower bound ===")
wc = worst_case_target(dec, d, B, eps)
_, wc_err = project_fpsi(wc, encoder)
print(f"worst-case error {wc_err:.8f} vs bound {lower_bound:.8f}")
