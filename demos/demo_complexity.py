"""Augmentation complexity: exact, percentile, sampled, and closed forms.

The squared complexity is the worst-case density ratio mass; smaller means
a stronger augmentation.  The three hypercube schemes are compared at equal
mask ratios, and the Monte-Carlo estimator is checked against the exact
percentile.
"""

import numpy as np

from augrkhs import (
    HypercubeConfig,
    build_hypercube,
    closed_form_kappa,
    decompose,
    figure_4a_data,
    kappa_exact,
    kappa_monte_carlo,
    kappa_percentile,
)

np.set_printoptions(precision=4, suppress=True)

print("=== kappa^2 by scheme at d_x=6 ===")
print(f"{'scheme':<18}{'alpha':>6}{'exact':>12}{'closed form':>14}{'kind':>13}")
for scheme in ("random_mask", "block_mask", "block_mask_flip"):
    for alpha in (0.2, 0.5, 0.8):
        config = HypercubeConfig(6, alpha, scheme)
        report = kappa_exact(decompose(build_hypercube(config)))
        closed = closed_form_kappa(config)
        print(f"{scheme:<18}{alpha:>6}{report.kappa_sq_max:>12.4f}"
              f"{closed.value:>14.4f}{closed.kind:>13}")

print("\n=== Trace identity ===")
process = build_hypercube(HypercubeConfig(6, 0.5, "random_mask"))
report = kappa_exact(decompose(process))
print(f"sum of eigenvalues: {report.s_lambda_total:.6f}")
print(f"identity residual vs 1 + mean chi-squared divergence: "
      f"{report.chi_sq_identity_residual:.2e}")
print(f"kappa^2 dominates the trace: {report.kappa_sq_max:.4f} >= "
      f"{report.s_lambda_total:.4f}")

print("\n=== Monte-Carlo percentile estimate ===")
exact = kappa_percentile(process, 99.0)
estimate = kappa_monte_carlo(process, m=process.n_x, r=20000, beta=99.0,
                             seed=0)
print(f"exact 99th percentile: {exact:.4f}")
print(f"sampled estimate:      {estimate.estimate:.4f} "
      f"+/- {estimate.standard_error:.4f} (bootstrap)")

print("\n=== Base curves of the three closed forms ===")
header, rows = figure_4a_data()
for i in (0, 25, 50, 75, 100):
    row = rows[i]
    print(f"alpha={row['alpha']:.2f}: random {row['random_mask']:.4f}  "
          f"block {row['block_mask']:.4f}  "
          f"block+flip {row['block_mask_flip']:.4f}")
